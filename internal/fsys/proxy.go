package fsys

import (
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// FsPagerProxy is the client-side stub for an fs_pager object. It embeds
// the plain pager proxy over the same channel and adds the attribute
// operations, so it narrows to both PagerObject and FsPagerObject across
// domains.
type FsPagerProxy struct {
	vm.PagerObject
	ch   *spring.Channel
	impl FsPagerObject
}

var _ FsPagerObject = (*FsPagerProxy)(nil)

// NewFsPagerProxy wraps impl for invocation over ch.
func NewFsPagerProxy(ch *spring.Channel, impl FsPagerObject) FsPagerObject {
	if ch.Path() == spring.PathSameDomain {
		return impl
	}
	return &FsPagerProxy{PagerObject: vm.NewPagerProxy(ch, impl), ch: ch, impl: impl}
}

// GetAttributes implements FsPagerObject.
func (p *FsPagerProxy) GetAttributes() (Attributes, error) {
	var (
		attrs Attributes
		err   error
	)
	p.ch.Call(func() { attrs, err = p.impl.GetAttributes() })
	return attrs, err
}

// SetAttributes implements FsPagerObject.
func (p *FsPagerProxy) SetAttributes(attrs Attributes) error {
	var err error
	p.ch.Call(func() { err = p.impl.SetAttributes(attrs) })
	return err
}

// FsCacheProxy is the client-side stub for an fs_cache object: the plain
// cache proxy over the same channel plus the attribute operations.
type FsCacheProxy struct {
	vm.CacheObject
	ch   *spring.Channel
	impl FsCacheObject
}

var _ FsCacheObject = (*FsCacheProxy)(nil)

// NewFsCacheProxy wraps impl for invocation over ch.
func NewFsCacheProxy(ch *spring.Channel, impl FsCacheObject) FsCacheObject {
	if ch.Path() == spring.PathSameDomain {
		return impl
	}
	return &FsCacheProxy{CacheObject: vm.NewCacheProxy(ch, impl), ch: ch, impl: impl}
}

// FlushAttributes implements FsCacheObject.
func (p *FsCacheProxy) FlushAttributes() (Attributes, bool) {
	var (
		attrs Attributes
		dirty bool
	)
	p.ch.Call(func() { attrs, dirty = p.impl.FlushAttributes() })
	return attrs, dirty
}

// PopulateAttributes implements FsCacheObject.
func (p *FsCacheProxy) PopulateAttributes(attrs Attributes) {
	p.ch.Call(func() { p.impl.PopulateAttributes(attrs) })
}

// InvalidateAttributes implements FsCacheObject.
func (p *FsCacheProxy) InvalidateAttributes() {
	p.ch.Call(func() { p.impl.InvalidateAttributes() })
}

// FileProxy is the client-side stub for a File served by another domain.
// Opening a file across domains yields one of these; every file operation
// then pays the invocation cost of the channel, which is exactly what the
// Table 2 cross-domain rows measure.
type FileProxy struct {
	ch   *spring.Channel
	impl File
}

var _ File = (*FileProxy)(nil)
var _ naming.ProxyWrappable = (*FileProxy)(nil)

// NewFileProxy wraps impl for invocation over ch.
func NewFileProxy(ch *spring.Channel, impl File) File {
	if ch.Path() == spring.PathSameDomain {
		return impl
	}
	return &FileProxy{ch: ch, impl: impl}
}

// WrapForChannel implements naming.ProxyWrappable: re-wrapping a proxy
// re-targets the original implementation over the new channel.
func (p *FileProxy) WrapForChannel(ch *spring.Channel) naming.Object {
	return NewFileProxy(ch, p.impl)
}

// Bind implements vm.MemoryObject. The bind operation travels to the file's
// server, which either handles it or forwards it to the underlying layer
// (the DFS local-bind forwarding of Figure 7 happens server-side).
func (p *FileProxy) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	var (
		rights vm.CacheRights
		err    error
	)
	p.ch.Call(func() { rights, err = p.impl.Bind(caller, access, offset, length) })
	return rights, err
}

// GetLength implements vm.MemoryObject.
func (p *FileProxy) GetLength() (vm.Offset, error) {
	var (
		l   vm.Offset
		err error
	)
	p.ch.Call(func() { l, err = p.impl.GetLength() })
	return l, err
}

// SetLength implements vm.MemoryObject.
func (p *FileProxy) SetLength(length vm.Offset) error {
	var err error
	p.ch.Call(func() { err = p.impl.SetLength(length) })
	return err
}

// ReadAt implements File.
func (p *FileProxy) ReadAt(b []byte, off int64) (int, error) {
	var (
		n   int
		err error
	)
	p.ch.Call(func() { n, err = p.impl.ReadAt(b, off) })
	return n, err
}

// WriteAt implements File.
func (p *FileProxy) WriteAt(b []byte, off int64) (int, error) {
	var (
		n   int
		err error
	)
	p.ch.Call(func() { n, err = p.impl.WriteAt(b, off) })
	return n, err
}

// Stat implements File.
func (p *FileProxy) Stat() (Attributes, error) {
	var (
		attrs Attributes
		err   error
	)
	p.ch.Call(func() { attrs, err = p.impl.Stat() })
	return attrs, err
}

// Sync implements File.
func (p *FileProxy) Sync() error {
	var err error
	p.ch.Call(func() { err = p.impl.Sync() })
	return err
}

// Append implements Appender by running the append in the file's own
// domain, where the implementation (or the per-file fallback lock) orders
// it against every other appender of the same file.
func (p *FileProxy) Append(b []byte) (int64, int, error) {
	var (
		off int64
		n   int
		err error
	)
	p.ch.Call(func() { off, n, err = Append(p.impl, b) })
	return off, n, err
}

// Retain implements HandleFile.
func (p *FileProxy) Retain() {
	p.ch.Call(func() { Retain(p.impl) })
}

// Release implements HandleFile.
func (p *FileProxy) Release() error {
	var err error
	p.ch.Call(func() { err = Release(p.impl) })
	return err
}

// Unwrap returns the server-side file implementation. It is used by
// same-node layers that need the concrete object (e.g. CFS interposing on
// a remote file) and by tests.
func (p *FileProxy) Unwrap() File { return p.impl }

// StackableFSProxy is the client-side stub for a stackable file system
// served by another domain: it proxies the fs half itself and embeds a
// naming.ContextProxy over the same channel for the naming-context half, so
// a layer stacked on a file system in another domain pays a cross-domain
// call per operation on the lower layer — exactly the configuration the
// "stacked, two domains" column of Table 2 measures.
type StackableFSProxy struct {
	naming.Context
	ch   *spring.Channel
	impl StackableFS
}

var (
	_ StackableFS           = (*StackableFSProxy)(nil)
	_ naming.ProxyWrappable = (*StackableFSProxy)(nil)
)

// WrapStackable returns a proxy for impl over ch, collapsing to impl for
// same-domain channels.
func WrapStackable(ch *spring.Channel, impl StackableFS) StackableFS {
	if ch.Path() == spring.PathSameDomain {
		return impl
	}
	return &StackableFSProxy{Context: naming.NewContextProxy(ch, impl), ch: ch, impl: impl}
}

// WrapForChannel implements naming.ProxyWrappable.
func (p *StackableFSProxy) WrapForChannel(ch *spring.Channel) naming.Object {
	return WrapStackable(ch, p.impl)
}

// Unwrap returns the server-side implementation.
func (p *StackableFSProxy) Unwrap() StackableFS { return p.impl }

// FSName implements FS.
func (p *StackableFSProxy) FSName() string {
	var name string
	p.ch.Call(func() { name = p.impl.FSName() })
	return name
}

// Create implements FS.
func (p *StackableFSProxy) Create(name string, cred naming.Credentials) (File, error) {
	var (
		f   File
		err error
	)
	p.ch.Call(func() { f, err = p.impl.Create(name, cred) })
	if f != nil {
		f = NewFileProxy(p.ch, f)
	}
	return f, err
}

// Open implements FS.
func (p *StackableFSProxy) Open(name string, cred naming.Credentials) (File, error) {
	var (
		f   File
		err error
	)
	p.ch.Call(func() { f, err = p.impl.Open(name, cred) })
	if f != nil {
		f = NewFileProxy(p.ch, f)
	}
	return f, err
}

// Remove implements FS.
func (p *StackableFSProxy) Remove(name string, cred naming.Credentials) error {
	var err error
	p.ch.Call(func() { err = p.impl.Remove(name, cred) })
	return err
}

// Rename implements FS.
func (p *StackableFSProxy) Rename(oldname, newname string, cred naming.Credentials) error {
	var err error
	p.ch.Call(func() { err = p.impl.Rename(oldname, newname, cred) })
	return err
}

// SyncFS implements FS.
func (p *StackableFSProxy) SyncFS() error {
	var err error
	p.ch.Call(func() { err = p.impl.SyncFS() })
	return err
}

// StackOn implements StackableFS.
func (p *StackableFSProxy) StackOn(under StackableFS) error {
	var err error
	p.ch.Call(func() { err = p.impl.StackOn(under) })
	return err
}
