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
	"sync"

	"springfs/internal/dfs"
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/stats"
	"springfs/internal/vm"
)

// CFS is the per-node caching file system.
type CFS struct {
	name   string
	domain *spring.Domain
	vmm    *vm.VMM

	mu    sync.Mutex
	files map[*dfs.RemoteFile]*cfsFile

	// Interpositions counts files CFS has interposed on.
	Interpositions stats.Counter
}

// New creates a CFS instance on the node owning vmm, served by domain.
func New(domain *spring.Domain, vmm *vm.VMM, name string) *CFS {
	return &CFS{
		name:   name,
		domain: domain,
		vmm:    vmm,
		files:  make(map[*dfs.RemoteFile]*cfsFile),
	}
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

// InterposeOnContext rebinds ctxName inside parent to an interposed
// context that substitutes CFS files for every remote file resolved
// through it (the name-resolution-time interposition of Section 5).
func (c *CFS) InterposeOnContext(parent *naming.BasicContext, ctxName string, cred naming.Credentials) (*naming.InterposedContext, error) {
	ic, err := naming.InterposeOn(parent, ctxName, cred)
	if err != nil {
		return nil, err
	}
	ic.InterceptAll(func(name string, original naming.Object, rerr error) (naming.Object, error) {
		if rerr != nil {
			return original, rerr
		}
		return c.InterposeObject(original), nil
	})
	return ic, nil
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

// Remote returns the interposed remote file (tests).
func (f *cfsFile) Remote() *dfs.RemoteFile { return f.lower }

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
