package fsys

import (
	"springfs/internal/naming"
	"springfs/internal/spring"
)

// IdentityFS is the null layer: the kit with no idea of its own, and so
// the template a new layer starts from — give its file a transform, and a
// pager of its own (FilePager) once its pages differ from the lower file's.
// The conformance suite runs it as the sfs-passthrough shape.
type IdentityFS struct {
	Passthrough
}

// NewIdentityFS creates an identity layer.
func NewIdentityFS(name string) *IdentityFS {
	s := &IdentityFS{}
	s.Init(name, s, func(lower File) File { return &ForwardFile{File: lower} })
	return s
}

// ForwardFile is the file of a layer that adds nothing to its files (the
// identity layer; a DFS server's local view of an exported file, Figure 7).
// The lower file is embedded so that every file operation — Bind included,
// which makes mappings share the lower file's cached pages — forwards, plus
// what embedding an interface does not carry: the optional handle and append
// interfaces and the proxy a cross-domain client needs.
type ForwardFile struct {
	File
}

func (f *ForwardFile) Lower() File    { return f.File }
func (f *ForwardFile) Retain()        { Retain(f.File) }
func (f *ForwardFile) Release() error { return Release(f.File) }

// Append implements Appender by forwarding, so appenders through this file
// and through the lower one share the lower file's end-of-file order.
func (f *ForwardFile) Append(p []byte) (int64, int, error) { return Append(f.File, p) }

func (f *ForwardFile) WrapForChannel(ch *spring.Channel) naming.Object {
	return NewFileProxy(ch, f)
}
