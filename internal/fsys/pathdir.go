package fsys

import (
	"fmt"
	"strings"

	"springfs/internal/naming"
	"springfs/internal/spring"
)

// PathRoot is a file system root whose naming operations take whole
// root-relative paths, so a directory below it needs no object of its own
// kind: a path-keyed layer (mirroring, striping, snapshots, the DFS
// client) resolves, unbinds and creates by path already, and adds only the
// listing of a sub-path.
type PathRoot interface {
	naming.Context
	// ListPath lists the bindings directly under path.
	ListPath(path string, cred naming.Credentials) ([]naming.Binding, error)
}

// PathLayer is what a path-keyed layer hands its PathBase: itself.
type PathLayer interface {
	StackableFS
	PathRoot
}

// layerBase is what both embeddable bases know of their layer: its name
// and the layer itself, as clients see it and as it travels.
type layerBase struct {
	name  string
	outer StackableFS
}

// FSName implements FS.
func (b *layerBase) FSName() string { return b.name }

// WrapForChannel implements naming.ProxyWrappable: what travels is the
// outer layer, so a same-domain channel collapses to the layer itself.
func (b *layerBase) WrapForChannel(ch *spring.Channel) naming.Object {
	return WrapStackable(ch, b.outer)
}

// Open implements FS.
func (b *layerBase) Open(name string, cred naming.Credentials) (File, error) {
	obj, err := b.outer.Resolve(name, cred)
	if err != nil {
		return nil, err
	}
	return AsFile(obj)
}

// PathBase is the embeddable root of a path-keyed layer — one whose name
// space is its own (several file systems below, or none that is local)
// rather than a pass-through of one lower context. The layer writes
// Create, Remove, Rename, Resolve, CreateContext and ListPath, which are
// its idea; the base derives the rest of stackable_fs from them.
type PathBase struct {
	layerBase
	root PathRoot // the layer again: what directories call back into
}

// Init prepares the base embedded in outer, the layer clients see.
func (b *PathBase) Init(name string, outer PathLayer) {
	b.layerBase, b.root = layerBase{name, outer}, outer
}

// Bind implements naming.Context: the layer places every object in its
// name space itself, so there is nothing a foreign object could be bound to.
func (b *PathBase) Bind(name string, obj naming.Object, cred naming.Credentials) error {
	return fmt.Errorf("%s: bind is not supported; create files through the layer", b.name)
}

// Unbind implements naming.Context.
func (b *PathBase) Unbind(name string, cred naming.Credentials) error {
	return b.outer.Remove(name, cred)
}

// List implements naming.Context.
func (b *PathBase) List(cred naming.Credentials) ([]naming.Binding, error) {
	return b.root.ListPath("", cred)
}

// Dir returns the directory at path seen through the layer.
func (b *PathBase) Dir(path string) *PathDir {
	return &PathDir{Root: b.root, Path: strings.Trim(path, "/")}
}

// PathDir is the directory at Path seen through Root: every operation
// joins the name onto the path and calls back into the root, so what it
// returns — and what it refuses, on a read-only root — is exactly what the
// full path would.
type PathDir struct {
	Root PathRoot
	Path string
}

var _ naming.Context = (*PathDir)(nil)

func (d *PathDir) join(name string) string { return d.Path + "/" + strings.Trim(name, "/") }

// Resolve implements naming.Context.
func (d *PathDir) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	return d.Root.Resolve(d.join(name), cred)
}

// Bind implements naming.Context.
func (d *PathDir) Bind(name string, obj naming.Object, cred naming.Credentials) error {
	return d.Root.Bind(d.join(name), obj, cred)
}

// Unbind implements naming.Context.
func (d *PathDir) Unbind(name string, cred naming.Credentials) error {
	return d.Root.Unbind(d.join(name), cred)
}

// List implements naming.Context.
func (d *PathDir) List(cred naming.Credentials) ([]naming.Binding, error) {
	return d.Root.ListPath(d.Path, cred)
}

// CreateContext implements naming.Context.
func (d *PathDir) CreateContext(name string, cred naming.Credentials) (naming.Context, error) {
	return d.Root.CreateContext(d.join(name), cred)
}
