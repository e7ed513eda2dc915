package fsys

import (
	"errors"

	"springfs/internal/naming"
	"springfs/internal/vm"
)

// Errors returned by file system operations.
var (
	// ErrIsDirectory is returned when a file operation targets a context.
	ErrIsDirectory = errors.New("fsys: is a directory")
	// ErrNotFile is returned when a name resolves to something that is not
	// a file.
	ErrNotFile = errors.New("fsys: not a file")
	// ErrNotStacked is returned when a layer is used before StackOn.
	ErrNotStacked = errors.New("fsys: layer has no underlying file system")
	// ErrAlreadyStacked is returned when StackOn exceeds the layer's
	// maximum number of underlying file systems.
	ErrAlreadyStacked = errors.New("fsys: layer already stacked")
	// ErrReadOnly is returned for mutations on read-only layers.
	ErrReadOnly = errors.New("fsys: read-only file system")
	// ErrClosed is returned after a file system is shut down.
	ErrClosed = errors.New("fsys: file system closed")
	// ErrUnavailable is returned when a layer cannot reach a backing
	// resource (a dead peer, a partitioned link, a timed-out call).
	// Layers above may degrade — mirrorfs drops the replica from its
	// fan-out, coherency removes the unreachable holder — instead of
	// treating it as data corruption.
	ErrUnavailable = errors.New("fsys: resource unavailable")
	// ErrNegativeOffset is returned by a read or write at an offset below
	// zero.
	ErrNegativeOffset = errors.New("fsys: negative offset")
)

// File is the Spring file interface. It inherits from the memory object
// interface (a file can be mapped) and adds read/write operations — but no
// page-in/page-out operations; those live on the pager object reached via
// Bind (Table 1 of the paper).
type File interface {
	vm.MemoryObject
	// ReadAt reads len(p) bytes from offset off, returning io.EOF
	// semantics like io.ReaderAt.
	ReadAt(p []byte, off int64) (int, error)
	// WriteAt writes p at offset off, extending the file as needed.
	WriteAt(p []byte, off int64) (int, error)
	// Stat returns the file's attributes.
	Stat() (Attributes, error)
	// Sync flushes the file's modified data and attributes toward stable
	// storage.
	Sync() error
}

// FS is the file system interface: administrative operations on a file
// system as a whole. What clients mostly use is the naming side — files
// are opened by resolving names in the file system's naming context.
type FS interface {
	// FSName identifies the file system instance (for diagnostics).
	FSName() string
	// Create creates a file at name (relative to the file system's root
	// context) and returns it.
	Create(name string, cred naming.Credentials) (File, error)
	// Open resolves name to a File.
	Open(name string, cred naming.Credentials) (File, error)
	// Remove removes the file at name.
	Remove(name string, cred naming.Credentials) error
	// Rename atomically moves the file at oldname to newname (both relative
	// to the file system's root context), replacing any existing file at
	// newname. Renaming a name onto itself succeeds without effect.
	Rename(oldname, newname string, cred naming.Credentials) error
	// SyncFS flushes all modified state toward stable storage.
	SyncFS() error
}

// StackableFS is the stackable_fs interface of Figure 8: it inherits from
// both the fs interface and the naming_context interface. Instances are
// produced by creators, composed with StackOn, and exposed to clients by
// binding them (they are naming contexts) somewhere in the name space.
type StackableFS interface {
	FS
	naming.Context
	// StackOn gives the layer an underlying file system. It can be called
	// more than once to stack on more than one underlying file system;
	// the maximum number is implementation dependent (one for most
	// layers, two for the mirroring layer).
	StackOn(under StackableFS) error
}

// Creator is the stackable_fs_creator interface: it creates instances of
// stackable file systems. At boot or run time the creator for each file
// system type registers itself in a well-known context (e.g.
// /fs_creators/dfs_creator); configuring a new stack starts by looking the
// creator up with a normal naming resolve.
type Creator interface {
	// CreateFS returns a fresh instance of the file system type. The
	// config map carries implementation-specific settings.
	CreateFS(config map[string]string) (StackableFS, error)
}

// CreatorFunc adapts a function to the Creator interface.
type CreatorFunc func(config map[string]string) (StackableFS, error)

// CreateFS implements Creator.
func (f CreatorFunc) CreateFS(config map[string]string) (StackableFS, error) {
	return f(config)
}

// CreatorsContextName is the well-known name of the context where file
// system creators register themselves.
const CreatorsContextName = "fs_creators"

// RegisterCreator binds creator under /fs_creators/<name> in root, creating
// the creators context on first use.
func RegisterCreator(root naming.Context, name string, creator Creator, cred naming.Credentials) error {
	ctxObj, err := root.Resolve(CreatorsContextName, cred)
	if err != nil {
		ctx, cerr := root.CreateContext(CreatorsContextName, cred)
		if cerr != nil {
			return cerr
		}
		ctxObj = ctx
	}
	ctx, ok := ctxObj.(naming.Context)
	if !ok {
		return naming.ErrNotContext
	}
	return ctx.Bind(name, creator, cred)
}

// LookupCreator resolves /fs_creators/<name> in root.
func LookupCreator(root naming.Context, name string, cred naming.Credentials) (Creator, error) {
	obj, err := root.Resolve(CreatorsContextName+"/"+name, cred)
	if err != nil {
		return nil, err
	}
	creator, ok := obj.(Creator)
	if !ok {
		return nil, errors.New("fsys: bound object is not a file system creator")
	}
	return creator, nil
}

// ConfigureStack performs the Section 4.4 recipe: look up a creator, create
// an instance, stack it on the underlying file systems in order, and bind
// it at exportName in exportCtx (empty exportName skips the bind, keeping
// the layer private — an administrative decision).
func ConfigureStack(root naming.Context, creatorName string, config map[string]string,
	under []StackableFS, exportCtx naming.Context, exportName string, cred naming.Credentials) (StackableFS, error) {
	creator, err := LookupCreator(root, creatorName, cred)
	if err != nil {
		return nil, err
	}
	layer, err := creator.CreateFS(config)
	if err != nil {
		return nil, err
	}
	for _, u := range under {
		if err := layer.StackOn(u); err != nil {
			return nil, err
		}
	}
	if exportCtx != nil && exportName != "" {
		if err := exportCtx.Bind(exportName, layer, cred); err != nil {
			return nil, err
		}
	}
	return layer, nil
}

// CanonicalKey returns a stable identity for a file that is independent of
// proxy wrapping: two proxies for the same server-side file yield the same
// key. Layers use it to keep one wrapper per underlying file (the
// equivalent-memory-objects contract of the bind protocol) even when the
// lower layer lives in another domain and every resolution mints a fresh
// proxy.
func CanonicalKey(f File) any {
	for {
		p, ok := f.(*FileProxy)
		if !ok {
			return f
		}
		f = p.Unwrap()
	}
}

// AsFile narrows obj to a File, unwrapping nothing: the object either is a
// file (or file proxy) or it is not.
func AsFile(obj naming.Object) (File, error) {
	f, ok := obj.(File)
	if !ok {
		if _, isCtx := obj.(naming.Context); isCtx {
			return nil, ErrIsDirectory
		}
		return nil, ErrNotFile
	}
	return f, nil
}
