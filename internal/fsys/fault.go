package fsys

import (
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// FaultFS is the fault layer: the identity layer with one change, that
// every operation first asks fault and fails with its error, if any,
// instead of forwarding (Section 5's interposition). Operations are named
// as in Go, in snake case (read, set_length, create_context, sync_fs); a
// file's Bind is "map", and the pager it hands out asks page_in, page_out,
// write_out and page_sync, so a cache manager stacked above meets the
// fault too; an append asks append and is one append below. A test places
// the layer in a Spec by registering a creator that makes one.
type FaultFS struct {
	Passthrough
	faultDir // the root: the Passthrough's, behind the fault
}

// NewFaultFS creates a fault layer that asks fault before every operation.
func NewFaultFS(name string, fault func(op string) error) *FaultFS {
	s := &FaultFS{}
	s.Init(name, s, func(lower File) File { return &faultFile{ForwardFile{lower}, fault} })
	s.faultDir = faultDir{s.passDir, fault}
	return s
}

// Create, Remove, Rename and SyncFS implement FS.
func (s *FaultFS) Create(name string, cred naming.Credentials) (File, error) {
	return ask(s.fault, "create", func() (File, error) { return s.Passthrough.Create(name, cred) })
}
func (s *FaultFS) Remove(name string, cred naming.Credentials) error {
	return ask1(s.fault, "remove", func() error { return s.Passthrough.Remove(name, cred) })
}
func (s *FaultFS) Rename(from, to string, cred naming.Credentials) error {
	return ask1(s.fault, "rename", func() error { return s.Passthrough.Rename(from, to, cred) })
}
func (s *FaultFS) SyncFS() error { return ask1(s.fault, "sync_fs", s.Passthrough.SyncFS) }

// faultDir is a directory seen through the fault layer.
type faultDir struct {
	naming.Context
	fault func(op string) error
}

// sub puts a directory obj behind the fault.
func (d faultDir) sub(obj naming.Object) naming.Object {
	if c, ok := obj.(naming.Context); ok {
		return faultDir{c, d.fault}
	}
	return obj
}

func (d faultDir) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	obj, err := ask(d.fault, "resolve", func() (naming.Object, error) { return d.Context.Resolve(name, cred) })
	return d.sub(obj), err
}
func (d faultDir) Bind(name string, obj naming.Object, cred naming.Credentials) error {
	return ask1(d.fault, "bind", func() error { return d.Context.Bind(name, obj, cred) })
}
func (d faultDir) Unbind(name string, cred naming.Credentials) error {
	return ask1(d.fault, "unbind", func() error { return d.Context.Unbind(name, cred) })
}
func (d faultDir) List(cred naming.Credentials) ([]naming.Binding, error) {
	out, err := ask(d.fault, "list", func() ([]naming.Binding, error) { return d.Context.List(cred) })
	for i := range out {
		out[i].Object = d.sub(out[i].Object)
	}
	return out, err
}
func (d faultDir) CreateContext(name string, cred naming.Credentials) (naming.Context, error) {
	c, err := ask(d.fault, "create_context", func() (naming.Context, error) { return d.Context.CreateContext(name, cred) })
	if err != nil {
		return nil, err
	}
	return faultDir{c, d.fault}, nil
}

// faultFile is a file seen through the fault layer: a ForwardFile whose
// operations, Append included, ask the fault first.
type faultFile struct {
	ForwardFile
	fault func(op string) error
}

func (f *faultFile) WrapForChannel(ch *spring.Channel) naming.Object { return NewFileProxy(ch, f) }
func (f *faultFile) Append(p []byte) (int64, int, error) {
	if err := f.fault("append"); err != nil {
		return 0, 0, err
	}
	return Append(f.File, p)
}
func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	return ask(f.fault, "read", func() (int, error) { return f.File.ReadAt(p, off) })
}
func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	return ask(f.fault, "write", func() (int, error) { return f.File.WriteAt(p, off) })
}
func (f *faultFile) Stat() (Attributes, error) { return ask(f.fault, "stat", f.File.Stat) }
func (f *faultFile) GetLength() (vm.Offset, error) {
	return ask(f.fault, "get_length", f.File.GetLength)
}
func (f *faultFile) Sync() error { return ask1(f.fault, "sync", f.File.Sync) }
func (f *faultFile) SetLength(length vm.Offset) error {
	return ask1(f.fault, "set_length", func() error { return f.File.SetLength(length) })
}

// Bind binds the lower file for caller through a faultManager.
func (f *faultFile) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	return ask(f.fault, "map", func() (vm.CacheRights, error) {
		return f.File.Bind(faultManager{caller, f}, access, offset, length)
	})
}

// faultManager stands in for a cache manager binding through the layer
// and hands it the lower pager behind the fault. It is equal for one
// caller and file, so the lower pager keeps one connection per caller.
type faultManager struct {
	vm.CacheManager
	file *faultFile
}

func (m faultManager) NewConnection(pager vm.PagerObject) (vm.CacheObject, vm.CacheRights) {
	if fp, ok := pager.(FsPagerObject); ok {
		pager = &faultPager{fp, m.file.fault}
	}
	return m.CacheManager.NewConnection(pager)
}

// faultPager is a lower file's pager, its data movers behind the fault.
type faultPager struct {
	FsPagerObject
	fault func(op string) error
}

func (p *faultPager) PageIn(offset, size vm.Offset, access vm.Rights) ([]byte, error) {
	return ask(p.fault, "page_in", func() ([]byte, error) { return p.FsPagerObject.PageIn(offset, size, access) })
}
func (p *faultPager) PageOut(offset, size vm.Offset, data []byte) error {
	return ask1(p.fault, "page_out", func() error { return p.FsPagerObject.PageOut(offset, size, data) })
}
func (p *faultPager) WriteOut(offset, size vm.Offset, data []byte) error {
	return ask1(p.fault, "write_out", func() error { return p.FsPagerObject.WriteOut(offset, size, data) })
}
func (p *faultPager) Sync(offset, size vm.Offset, data []byte) error {
	return ask1(p.fault, "page_sync", func() error { return p.FsPagerObject.Sync(offset, size, data) })
}

// ask runs call unless fault fails op; ask1 is ask for a call that returns
// only an error.
func ask[T any](fault func(op string) error, op string, call func() (T, error)) (T, error) {
	if err := fault(op); err != nil {
		var zero T
		return zero, err
	}
	return call()
}

func ask1(fault func(op string) error, op string, call func() error) error {
	if err := fault(op); err != nil {
		return err
	}
	return call()
}
