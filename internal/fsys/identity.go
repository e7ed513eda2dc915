package fsys

import (
	"springfs/internal/naming"
	"springfs/internal/spring"
)

// IdentityFS is the null layer: the kit with no idea of its own, and so
// the template a new layer starts from — give identityFile a transform,
// and a pager of its own (FilePager) once its pages differ from the lower
// file's. The conformance suite runs it as the sfs-passthrough shape.
type IdentityFS struct {
	Passthrough
}

// NewIdentityFS creates an identity layer.
func NewIdentityFS(name string) *IdentityFS {
	s := &IdentityFS{}
	s.Init(name, s, func(lower File) File { return &identityFile{File: lower} })
	return s
}

// identityFile is the lower file, embedded so that every file operation —
// Bind included, which makes mappings share the lower file's cached pages —
// forwards, plus what embedding an interface does not carry: the optional
// handle interface and the proxy a cross-domain client needs.
type identityFile struct {
	File
}

func (f *identityFile) Lower() File    { return f.File }
func (f *identityFile) Retain()        { Retain(f.File) }
func (f *identityFile) Release() error { return Release(f.File) }

func (f *identityFile) WrapForChannel(ch *spring.Channel) naming.Object {
	return NewFileProxy(ch, f)
}
