package dfs

import (
	"errors"
	"net"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
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

// NewClientCreator returns the stackable_fs_creator of the DFS client: a
// leaf layer, stacked on nothing local, whose files are those of the
// server at the config's "address", reached over the connection dial opens.
// Its remote files' pager objects are served from domain.
func NewClientCreator(domain *spring.Domain, dial func(address string) (net.Conn, error)) fsys.Creator {
	return fsys.CreatorFunc(func(config map[string]string) (fsys.StackableFS, error) {
		address := config["address"]
		if address == "" {
			return nil, errors.New("dfs: a client needs the server's address")
		}
		conn, err := dial(address)
		if err != nil {
			return nil, err
		}
		return NewClientFS(NewClient(conn, domain, config["name"]), config["name"]), nil
	})
}

// Client returns the protocol client the layer speaks through.
func (c *ClientFS) Client() *Client { return c.client }

// Close detaches the client from its server and drops the connection.
func (c *ClientFS) Close() { _ = c.client.Close() } // a failed detach drops it too

// ErrRemoteBind is returned for naming operations DFS cannot express on the
// wire (binding arbitrary local objects into a remote name space).
var ErrRemoteBind = errors.New("dfs: cannot bind local objects in a remote name space")

// Create implements fsys.FS.
func (c *ClientFS) Create(name string, cred naming.Credentials) (fsys.File, error) {
	return c.client.Create(name)
}

// Open implements fsys.FS in one round trip: the lookup.
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

// Resolve implements naming.Context in one round trip, the lookup, whose
// reply tells a file (a RemoteFile) from a directory.
func (c *ClientFS) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	f, err := c.client.Open(name)
	if errors.Is(err, fsys.ErrIsDirectory) {
		return c.Dir(name), nil
	}
	if err != nil {
		return nil, err
	}
	return f, nil
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
