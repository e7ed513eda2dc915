package fsys

import (
	"sync"

	"springfs/internal/naming"
)

// Passthrough is the embeddable base of a layer stacked on exactly one
// file system whose name space it passes through unchanged, transforming
// only the files: the layer supplies the wrapper for a lower file and
// inherits the rest of stackable_fs, overriding (and calling through to)
// only the operations that are its idea, the way the paper's layers
// inherit fs and naming_context. The base guarantees one wrapper per lower
// file — keyed by CanonicalKey, so every proxy of a cross-domain lower
// file finds the same wrapper, which is the equivalent-memory-objects
// contract of the bind protocol — and wraps directories too, so an object
// reached through any sub-context is the object its full path resolves to.
type Passthrough struct {
	layerBase
	passDir // the root directory: the layer's naming-context half

	wrap func(lower File) File

	mu    sync.Mutex
	under StackableFS
	files map[any]File // CanonicalKey(lower) → wrapper
}

// Init prepares the base embedded in outer, the layer clients see. wrap
// builds the layer's file for a lower file; it runs once per lower file,
// under the handle-table lock, so it must not call back into the layer's
// name space. A wrapper with a `Lower() File` method is bound below as that
// lower file when a client binds it under a second name.
func (p *Passthrough) Init(name string, outer StackableFS, wrap func(lower File) File) {
	p.layerBase, p.passDir, p.wrap = layerBase{name, outer}, passDir{p: p}, wrap
	p.files = make(map[any]File)
}

// StackOn implements StackableFS; the layer stacks on exactly one file
// system.
func (p *Passthrough) StackOn(under StackableFS) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.under != nil {
		return ErrAlreadyStacked
	}
	p.under = under
	return nil
}

// Under returns the underlying file system, or ErrNotStacked.
func (p *Passthrough) Under() (StackableFS, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.under == nil {
		return nil, ErrNotStacked
	}
	return p.under, nil
}

// FileFor returns the canonical wrapper for a lower file, building it on
// first sight.
func (p *Passthrough) FileFor(lower File) File {
	key := CanonicalKey(lower)
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.files[key]; ok {
		return f
	}
	f := p.wrap(lower)
	p.files[key] = f
	return f
}

// Files returns the live wrappers (a snapshot, in no particular order).
func (p *Passthrough) Files() []File {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]File, 0, len(p.files))
	for _, f := range p.files {
		out = append(out, f)
	}
	return out
}

// drop forgets the wrapper of a lower file that is about to be unlinked.
func (p *Passthrough) drop(key any) {
	p.mu.Lock()
	delete(p.files, key)
	p.mu.Unlock()
}

// fileKeyAt returns the handle-table key of the file name resolves to
// below, or nil if it resolves to no file.
func fileKeyAt(under StackableFS, name string, cred naming.Credentials) any {
	if obj, err := under.Resolve(name, cred); err == nil {
		if lf, ok := obj.(File); ok {
			return CanonicalKey(lf)
		}
	}
	return nil
}

// Create implements FS.
func (p *Passthrough) Create(name string, cred naming.Credentials) (File, error) {
	under, err := p.Under()
	if err != nil {
		return nil, err
	}
	lower, err := under.Create(name, cred)
	if err != nil {
		return nil, err
	}
	return p.FileFor(lower), nil
}

// Remove implements FS, dropping the wrapper before removing below.
func (p *Passthrough) Remove(name string, cred naming.Credentials) error {
	under, err := p.Under()
	if err != nil {
		return err
	}
	if key := fileKeyAt(under, name, cred); key != nil {
		p.drop(key)
	}
	return under.Remove(name, cred)
}

// Rename implements FS: the lower layer does the atomic move; this layer
// drops the wrapper of an overwritten destination, whose lower file the
// rename unlinks. The moving file's wrapper is keyed by the lower file's
// identity, not its name, so it needs no attention.
func (p *Passthrough) Rename(oldname, newname string, cred naming.Credentials) error {
	under, err := p.Under()
	if err != nil {
		return err
	}
	dropKey := fileKeyAt(under, newname, cred)
	if dropKey != nil && dropKey == fileKeyAt(under, oldname, cred) {
		// Renaming a name onto itself must not drop the live wrapper.
		dropKey = nil
	}
	if err := under.Rename(oldname, newname, cred); err != nil {
		return err
	}
	if dropKey != nil {
		p.drop(dropKey)
	}
	return nil
}

// SyncFS implements FS. A layer holding state of its own per file
// overrides it to flush Files() first.
func (p *Passthrough) SyncFS() error {
	under, err := p.Under()
	if err != nil {
		return err
	}
	return under.SyncFS()
}

// passDir is a lower directory seen through the layer: files resolved or
// listed through it come back as the layer's canonical wrappers and
// sub-directories as passDirs. The layer's root is the passDir with no
// lower context of its own, standing for whatever the layer is stacked on.
// A passDir holds no state, so a lower layer that mints a fresh context
// proxy per resolve costs the layer nothing to keep.
type passDir struct {
	p     *Passthrough
	lower naming.Context
}

var _ naming.Context = passDir{}

// ctx returns the lower context the directory forwards to.
func (d passDir) ctx() (naming.Context, error) {
	if d.lower != nil {
		return d.lower, nil
	}
	return d.p.Under()
}

// wrap converts a lower-layer object into the layer's counterpart.
func (d passDir) wrap(obj naming.Object) naming.Object {
	switch o := obj.(type) {
	case File:
		return d.p.FileFor(o)
	case naming.Context:
		return passDir{p: d.p, lower: o}
	}
	return obj
}

// Resolve implements naming.Context.
func (d passDir) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	lower, err := d.ctx()
	if err != nil {
		return nil, err
	}
	obj, err := lower.Resolve(name, cred)
	if err != nil {
		return nil, err
	}
	return d.wrap(obj), nil
}

// Bind implements naming.Context. One of the layer's own files is bound
// below as its lower file, so the new name resolves to the same wrapper.
func (d passDir) Bind(name string, obj naming.Object, cred naming.Credentials) error {
	lower, err := d.ctx()
	if err != nil {
		return err
	}
	if w, ok := obj.(interface{ Lower() File }); ok {
		lf := w.Lower()
		d.p.mu.Lock()
		own := d.p.files[CanonicalKey(lf)] == obj
		d.p.mu.Unlock()
		if own {
			obj = lf
		}
	}
	return lower.Bind(name, obj, cred)
}

// Unbind implements naming.Context.
func (d passDir) Unbind(name string, cred naming.Credentials) error {
	lower, err := d.ctx()
	if err != nil {
		return err
	}
	return lower.Unbind(name, cred)
}

// List implements naming.Context.
func (d passDir) List(cred naming.Credentials) ([]naming.Binding, error) {
	lower, err := d.ctx()
	if err != nil {
		return nil, err
	}
	out, err := lower.List(cred)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].Object = d.wrap(out[i].Object)
	}
	return out, nil
}

// CreateContext implements naming.Context.
func (d passDir) CreateContext(name string, cred naming.Credentials) (naming.Context, error) {
	lower, err := d.ctx()
	if err != nil {
		return nil, err
	}
	sub, err := lower.CreateContext(name, cred)
	if err != nil {
		return nil, err
	}
	return passDir{p: d.p, lower: sub}, nil
}
