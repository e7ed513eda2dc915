// Package cfs implements CFS, the attribute-caching file system of the
// paper (Section 6.2). Its main function is to interpose on remote files
// when they are passed to the local machine: once interposed on, all calls
// to remote files end up being handled by the local CFS.
//
// The interesting aspects reproduced here:
//
//   - When CFS is asked to interpose on a file, it becomes a cache manager
//     for the remote file by invoking the bind operation on it (Section
//     4.2); the fs_cache object it exchanges is how attribute coherency
//     callbacks from the home node reach the local cache.
//
//   - When a remote file is mapped locally, the VMM invokes the bind
//     operation on the file. Since the file is interposed on by CFS, CFS
//     receives the bind request and returns to the VMM a pager-cache
//     object channel to the remote DFS — all page-ins and page-outs from
//     the VMM go directly to the remote DFS.
//
//   - CFS caches file attributes, and services read/write requests by
//     mapping the file into its address space and reading/writing the data
//     from/to its memory, thereby utilising the local VMM for caching the
//     data.
//
//   - CFS is optional: if it is not running, remote files are not
//     interposed on and all file operations go to the remote DFS.
package cfs

import (
	"errors"
	"fmt"
	"sync"

	"springfs/internal/dfs"
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/stats"
	"springfs/internal/vm"
)

// CFS is the per-node caching file system. Stacked on a remote file
// system (a DFS client), it is the machine's view of that file system:
// every remote file a resolution through it returns is interposed on, and
// the other operations go to the remote file system unchanged.
type CFS struct {
	remoteFS // nil until StackOn
	name     string
	domain   *spring.Domain
	vmm      *vm.VMM

	mu    sync.Mutex
	files map[*dfs.RemoteFile]*cfsFile

	// Interpositions counts files CFS has interposed on.
	Interpositions stats.Counter
}

// remoteFS is the remote file system CFS stacks on.
type remoteFS = fsys.PathLayer

var _ fsys.PathLayer = (*CFS)(nil)

// New creates a CFS instance on the node owning vmm, served by domain.
func New(domain *spring.Domain, vmm *vm.VMM, name string) *CFS {
	return &CFS{
		name:   name,
		domain: domain,
		vmm:    vmm,
		files:  make(map[*dfs.RemoteFile]*cfsFile),
	}
}

// NewCreator returns the stackable_fs_creator of CFS on the node owning vmm.
func NewCreator(domain *spring.Domain, vmm *vm.VMM) fsys.Creator {
	return fsys.CreatorFunc(func(config map[string]string) (fsys.StackableFS, error) {
		return New(domain, vmm, config["name"]), nil
	})
}

// FSName implements fsys.FS.
func (c *CFS) FSName() string { return c.name }

// StackOn implements fsys.StackableFS: CFS stacks on one DFS client.
func (c *CFS) StackOn(under fsys.StackableFS) error {
	remote, ok := under.(*dfs.ClientFS)
	switch {
	case !ok:
		return fmt.Errorf("cfs: %s is not a remote file system", under.FSName())
	case c.remoteFS != nil:
		return fsys.ErrAlreadyStacked
	}
	c.remoteFS = remote
	return nil
}

// Create implements fsys.FS.
func (c *CFS) Create(name string, cred naming.Credentials) (fsys.File, error) {
	f, err := c.remoteFS.Create(name, cred)
	if err != nil {
		return nil, err
	}
	return c.InterposeObject(f).(fsys.File), nil
}

// Open implements fsys.FS.
func (c *CFS) Open(name string, cred naming.Credentials) (fsys.File, error) {
	f, err := c.remoteFS.Open(name, cred)
	if err != nil {
		return nil, err
	}
	return c.InterposeObject(f).(fsys.File), nil
}

// Resolve implements naming.Context. A directory resolves to the directory
// seen through CFS, so what is resolved in it is interposed on too.
func (c *CFS) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	obj, err := c.remoteFS.Resolve(name, cred)
	if err != nil {
		return nil, err
	}
	if d, ok := obj.(*fsys.PathDir); ok {
		return &fsys.PathDir{Root: c, Path: d.Path}, nil
	}
	return c.InterposeObject(obj), nil
}

// SyncFS implements fsys.FS: the files CFS caches write their dirty pages
// home, and every remote file is synced there.
func (c *CFS) SyncFS() error {
	c.mu.Lock()
	files := make([]*cfsFile, 0, len(c.files))
	for _, f := range c.files {
		files = append(files, f)
	}
	c.mu.Unlock()
	var errs []error
	for _, f := range files {
		errs = append(errs, f.io.Sync())
	}
	return errors.Join(append(errs, c.remoteFS.SyncFS())...)
}

// Interpose wraps a remote file in a CFS file. The returned object is of
// the same (file) type, so it can be substituted anywhere the original was
// expected — Spring's object interposition (Section 5).
func (c *CFS) Interpose(remote *dfs.RemoteFile) fsys.File {
	c.mu.Lock()
	if f, ok := c.files[remote]; ok {
		c.mu.Unlock()
		return f
	}
	f := &cfsFile{fs: c, lower: remote}
	f.io = fsys.NewMappedIO(c.vmm, f)
	f.conn = fsys.LowerConn{Layer: c.name, ID: remote.ID(), Domain: c.domain,
		Lower: remote, Access: vm.RightsRead, Cache: cfsCacheObject{}}
	c.files[remote] = f
	c.mu.Unlock()

	c.Interpositions.Inc()
	remote.EnableAttrCaching()
	// Become a cache manager for the remote file by invoking the bind
	// operation on it. A file that cannot be bound is still served, through
	// the file interface, without coherency callbacks.
	_, _ = f.conn.Pager()
	return f
}

// InterposeObject applies Interpose when obj is a remote file and returns
// everything else unchanged. It is the hook used with naming-level
// interposition: CFS intercepts name resolutions and substitutes its files
// for remote files.
func (c *CFS) InterposeObject(obj naming.Object) naming.Object {
	if rf, ok := obj.(*dfs.RemoteFile); ok {
		return c.Interpose(rf)
	}
	return obj
}

// cfsFile is an interposed remote file: reads and writes go through a
// local mapping (so the local VMM caches the data), attributes come from
// the locally cached copy, and binds are forwarded to the remote file so
// mappers talk to the remote DFS directly.
type cfsFile struct {
	fs    *CFS
	lower *dfs.RemoteFile
	io    *fsys.MappedIO
	conn  fsys.LowerConn // the cache-manager half
}

var (
	_ fsys.File             = (*cfsFile)(nil)
	_ naming.ProxyWrappable = (*cfsFile)(nil)
)

// WrapForChannel implements naming.ProxyWrappable.
func (f *cfsFile) WrapForChannel(ch *spring.Channel) naming.Object {
	return fsys.NewFileProxy(ch, f)
}

// cfsCacheObject is the fs_cache CFS exchanges when it binds: CFS holds no
// file data itself (the VMM does), and the remote file owns the local
// attribute cache, so the attribute operations have nothing to do either;
// being an fs_cache keeps CFS in the attribute-coherency protocol.
type cfsCacheObject struct{ vm.NopCache }

var _ fsys.FsCacheObject = cfsCacheObject{}

// FlushAttributes implements fsys.FsCacheObject.
func (cfsCacheObject) FlushAttributes() (fsys.Attributes, bool) { return fsys.Attributes{}, false }

// PopulateAttributes implements fsys.FsCacheObject.
func (cfsCacheObject) PopulateAttributes(attrs fsys.Attributes) {}

// InvalidateAttributes implements fsys.FsCacheObject.
func (cfsCacheObject) InvalidateAttributes() {}

// ---- file half ----

// Bind implements vm.MemoryObject: forward to the remote file, so the VMM
// ends up with a pager-cache channel to the remote DFS.
func (f *cfsFile) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	return f.lower.Bind(caller, access, offset, length)
}

// GetLength implements vm.MemoryObject (locally cached).
func (f *cfsFile) GetLength() (vm.Offset, error) { return f.lower.GetLength() }

// SetLength implements vm.MemoryObject.
func (f *cfsFile) SetLength(l vm.Offset) error { return f.lower.SetLength(l) }

// ReadAt implements fsys.File by reading through the local mapping; warm
// pages are served by the local VMM with no network traffic.
func (f *cfsFile) ReadAt(p []byte, off int64) (int, error) {
	return f.io.ReadAt(p, off)
}

// WriteAt implements fsys.File, writing through the local mapping.
func (f *cfsFile) WriteAt(p []byte, off int64) (int, error) {
	return f.io.WriteAt(p, off)
}

// Stat implements fsys.File from the local attribute cache.
func (f *cfsFile) Stat() (fsys.Attributes, error) { return f.lower.Stat() }

// Sync implements fsys.File: push locally cached dirty pages to the remote
// DFS and sync the file there.
func (f *cfsFile) Sync() error {
	if err := f.io.Sync(); err != nil {
		return err
	}
	return f.lower.Sync()
}

// Append implements fsys.Appender by forwarding to the remote file, so the
// append executes at the home node where the authoritative end of file
// lives. The coherency callbacks that precede the home-node write pull any
// locally cached dirty EOF page back first, exactly as for a remote WriteAt.
func (f *cfsFile) Append(p []byte) (int64, int, error) {
	return fsys.Append(f.lower, p)
}

// Retain implements fsys.HandleFile.
func (f *cfsFile) Retain() { fsys.Retain(f.lower) }

// Release implements fsys.HandleFile.
func (f *cfsFile) Release() error { return fsys.Release(f.lower) }
