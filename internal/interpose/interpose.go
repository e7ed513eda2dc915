// Package interpose implements per-file interposition (Section 5 of the
// paper): changing the semantics of individual files or even individual
// file operations, functionality similar to watchdogs (Bershad &
// Pinkerton, 1988).
//
// Spring provides a general mechanism for object interposition: an object
// O1 can be substituted for another object O2 of type foo as long as O1 is
// also of type foo. The implementation of O1 decides on a per-operation
// basis whether to invoke the corresponding operation on O2, or whether to
// implement the functionality itself.
//
// Hooks lets a watchdog intercept any subset of file operations; every
// operation without a hook forwards to the original file. Combined with
// naming-level interposition (naming.InterposedContext), a watchdog can be
// attached at name-resolution time so that "all calls on the new file are
// handled by the interposer".
package interpose

import (
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// Hooks are the per-operation interceptors of a watchdog. Each hook
// receives the original file and implements the operation itself or
// forwards to the original. Nil hooks forward.
type Hooks struct {
	// ReadAt intercepts reads.
	ReadAt func(orig fsys.File, p []byte, off int64) (int, error)
	// WriteAt intercepts writes.
	WriteAt func(orig fsys.File, p []byte, off int64) (int, error)
	// Stat intercepts attribute reads.
	Stat func(orig fsys.File) (fsys.Attributes, error)
	// Sync intercepts flushes.
	Sync func(orig fsys.File) error
	// SetLength intercepts truncation/extension.
	SetLength func(orig fsys.File, length int64) error
	// Bind intercepts mapping establishment. The default forwards, so
	// mappings of a watched file bypass the watchdog (as in the paper, a
	// more sophisticated interposer may act as a cache manager instead).
	Bind func(orig fsys.File, caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error)
	// Observe, if set, is called with the operation name after every
	// forwarded or intercepted operation (audit-trail watchdogs).
	Observe func(op string)
}

// File wraps orig with hooks. It is of the same type as the original (a
// file), so it can be substituted anywhere the original is expected.
type File struct {
	orig  fsys.File
	hooks Hooks
}

var (
	_ fsys.File             = (*File)(nil)
	_ naming.ProxyWrappable = (*File)(nil)
)

// New builds a watchdog file around orig.
func New(orig fsys.File, hooks Hooks) *File {
	return &File{orig: orig, hooks: hooks}
}

// WrapForChannel implements naming.ProxyWrappable.
func (f *File) WrapForChannel(ch *spring.Channel) naming.Object {
	return fsys.NewFileProxy(ch, f)
}

func (f *File) observe(op string) {
	if f.hooks.Observe != nil {
		f.hooks.Observe(op)
	}
}

// ReadAt implements fsys.File.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	defer f.observe("read")
	if f.hooks.ReadAt != nil {
		return f.hooks.ReadAt(f.orig, p, off)
	}
	return f.orig.ReadAt(p, off)
}

// WriteAt implements fsys.File.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	defer f.observe("write")
	if f.hooks.WriteAt != nil {
		return f.hooks.WriteAt(f.orig, p, off)
	}
	return f.orig.WriteAt(p, off)
}

// Stat implements fsys.File.
func (f *File) Stat() (fsys.Attributes, error) {
	defer f.observe("stat")
	if f.hooks.Stat != nil {
		return f.hooks.Stat(f.orig)
	}
	return f.orig.Stat()
}

// Sync implements fsys.File.
func (f *File) Sync() error {
	defer f.observe("sync")
	if f.hooks.Sync != nil {
		return f.hooks.Sync(f.orig)
	}
	return f.orig.Sync()
}

// Append implements fsys.Appender by forwarding to the original file, so a
// watched file keeps atomic O_APPEND semantics (the write itself still goes
// through the WriteAt machinery of the layer below the watchdog).
func (f *File) Append(p []byte) (int64, int, error) {
	defer f.observe("append")
	return fsys.Append(f.orig, p)
}

// Retain implements fsys.HandleFile.
func (f *File) Retain() { fsys.Retain(f.orig) }

// Release implements fsys.HandleFile.
func (f *File) Release() error { return fsys.Release(f.orig) }

// Bind implements vm.MemoryObject.
func (f *File) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	defer f.observe("bind")
	if f.hooks.Bind != nil {
		return f.hooks.Bind(f.orig, caller, access, offset, length)
	}
	return f.orig.Bind(caller, access, offset, length)
}

// GetLength implements vm.MemoryObject.
func (f *File) GetLength() (vm.Offset, error) {
	return f.orig.GetLength()
}

// SetLength implements vm.MemoryObject.
func (f *File) SetLength(length vm.Offset) error {
	defer f.observe("set_length")
	if f.hooks.SetLength != nil {
		return f.hooks.SetLength(f.orig, length)
	}
	return f.orig.SetLength(length)
}

// WatchName interposes a watchdog on one file name inside ctx: resolutions
// of name through ctx yield the watchdog file; all other resolutions pass
// through untouched. It returns the interposed context now bound in
// parent's place (the caller must hold admin rights on parent).
func WatchName(parent *naming.BasicContext, ctxName, name string, hooks Hooks, cred naming.Credentials) (*naming.InterposedContext, error) {
	ic, err := naming.InterposeOn(parent, ctxName, cred)
	if err != nil {
		return nil, err
	}
	ic.Intercept(name, func(original naming.Object) (naming.Object, error) {
		orig, err := fsys.AsFile(original)
		if err != nil {
			return nil, err
		}
		return New(orig, hooks), nil
	})
	return ic, nil
}
