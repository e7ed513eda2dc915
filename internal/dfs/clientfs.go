package dfs

import (
	"errors"

	"springfs/internal/fsys"
	"springfs/internal/naming"
)

// ClientFS adapts a Client to the stackable_fs interface, so the exported
// file system of a remote home node can be used wherever a local stack can:
// bound into a name space, handed to a unixapi process, stacked under other
// layers. Credentials are checked at the home node against the server's own
// credentials; the client-side ones are not transmitted.
type ClientFS struct {
	fsys.PathBase
	client *Client
}

var _ fsys.PathLayer = (*ClientFS)(nil)

// NewClientFS wraps client as a stackable file system named name.
func NewClientFS(client *Client, name string) *ClientFS {
	c := &ClientFS{client: client}
	c.Init(name, c)
	return c
}

// ErrRemoteBind is returned for naming operations DFS cannot express on the
// wire (binding arbitrary local objects into a remote name space).
var ErrRemoteBind = errors.New("dfs: cannot bind local objects in a remote name space")

// Create implements fsys.FS.
func (c *ClientFS) Create(name string, cred naming.Credentials) (fsys.File, error) {
	return c.client.Create(name)
}

// Open implements fsys.FS in one round trip, where resolving the name
// first would cost a second one to tell a missing file from a directory.
func (c *ClientFS) Open(name string, cred naming.Credentials) (fsys.File, error) {
	return c.client.Open(name)
}

// Remove implements fsys.FS.
func (c *ClientFS) Remove(name string, cred naming.Credentials) error {
	return c.client.Remove(name)
}

// Rename implements fsys.FS.
func (c *ClientFS) Rename(oldname, newname string, cred naming.Credentials) error {
	return c.client.Rename(oldname, newname)
}

// SyncFS implements fsys.FS: every remote file this client has touched is
// synced at the home node.
func (c *ClientFS) SyncFS() error {
	c.client.mu.Lock()
	files := make([]*RemoteFile, 0, len(c.client.files))
	for _, f := range c.client.files {
		files = append(files, f)
	}
	c.client.mu.Unlock()
	var first error
	for _, f := range files {
		if err := f.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// StackOn implements fsys.StackableFS. The layer below a ClientFS is the
// remote server's stack; there is nothing local to stack on.
func (c *ClientFS) StackOn(under fsys.StackableFS) error { return fsys.ErrAlreadyStacked }

// Resolve implements naming.Context: files come back as RemoteFiles, and a
// path that fails to open but lists successfully is a directory.
func (c *ClientFS) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	f, oerr := c.client.Open(name)
	if oerr == nil {
		return f, nil
	}
	if _, lerr := c.client.List(name); lerr == nil {
		return c.Dir(name), nil
	}
	return nil, oerr
}

// Bind implements naming.Context.
func (c *ClientFS) Bind(name string, obj naming.Object, cred naming.Credentials) error {
	return ErrRemoteBind
}

// CreateContext implements naming.Context.
func (c *ClientFS) CreateContext(name string, cred naming.Credentials) (naming.Context, error) {
	if err := c.client.Mkdir(name); err != nil {
		return nil, err
	}
	return c.Dir(name), nil
}

// ListPath implements fsys.PathRoot, converting a remote listing to
// bindings. Files are represented by lightweight markers, not opened
// RemoteFiles: a listing of N entries costs one round trip, and callers
// that want the file resolve its full path.
func (c *ClientFS) ListPath(path string, cred naming.Credentials) ([]naming.Binding, error) {
	entries, err := c.client.List(path)
	if err != nil {
		return nil, err
	}
	out := make([]naming.Binding, 0, len(entries))
	for _, e := range entries {
		var obj naming.Object = remoteEntry{}
		if e.IsDir {
			sub := e.Name
			if path != "" {
				sub = path + "/" + e.Name
			}
			obj = c.Dir(sub)
		}
		out = append(out, naming.Binding{Name: e.Name, Object: obj})
	}
	return out, nil
}

// remoteEntry marks a non-directory listing entry that has not been opened.
type remoteEntry struct{}
