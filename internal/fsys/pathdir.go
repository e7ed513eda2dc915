package fsys

import (
	"strings"

	"springfs/internal/naming"
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
