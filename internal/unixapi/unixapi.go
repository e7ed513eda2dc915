// Package unixapi provides a POSIX-style system-call interface over any
// stackable file system.
//
// The paper notes that Spring runs UNIX binaries ("Support for running
// UNIX binaries is also provided [11]") on top of exactly these file
// system interfaces; this package is that adapter at library scale: file
// descriptors, per-process working directories, open flags, seek — all
// implemented against the strongly-typed file and naming interfaces, so a
// UNIX-ish program runs unchanged over SFS, a compression stack, a mirror,
// or a remote DFS mount.
package unixapi

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/vm"
)

// Open flags (a subset of fcntl.h, same semantics).
const (
	O_RDONLY = 0x0
	O_WRONLY = 0x1
	O_RDWR   = 0x2
	O_CREAT  = 0x40
	O_EXCL   = 0x80
	O_TRUNC  = 0x200
	O_APPEND = 0x400

	accessModeMask = 0x3
)

// Whence values for Lseek.
const (
	SEEK_SET = 0
	SEEK_CUR = 1
	SEEK_END = 2
)

// Errno-style errors.
var (
	// EBADF is returned for operations on unknown or closed descriptors.
	EBADF = errors.New("unixapi: bad file descriptor")
	// ENOENT is returned when a path does not exist.
	ENOENT = errors.New("unixapi: no such file or directory")
	// EEXIST is returned by O_CREAT|O_EXCL on an existing file.
	EEXIST = errors.New("unixapi: file exists")
	// EISDIR is returned for file operations on directories.
	EISDIR = errors.New("unixapi: is a directory")
	// ENOTDIR is returned when a path component is not a directory.
	ENOTDIR = errors.New("unixapi: not a directory")
	// EINVAL is returned for malformed arguments.
	EINVAL = errors.New("unixapi: invalid argument")
	// EACCES is returned when the file system denies the operation.
	EACCES = errors.New("unixapi: permission denied")
	// ENOTEMPTY is returned when removing a non-empty directory.
	ENOTEMPTY = errors.New("unixapi: directory not empty")
)

// Process is one UNIX-ish process view over a file system: a descriptor
// table, a working directory, and credentials.
type Process struct {
	fs   fsys.StackableFS
	cred naming.Credentials

	mu     sync.Mutex
	cwd    string // always clean, "" means the fs root
	fds    map[int]*filedesc
	nextFD int

	// as is the process address space; nil unless created with
	// NewProcessVM (Mmap requires it).
	as *vm.AddressSpace
}

type filedesc struct {
	mu     sync.Mutex
	file   fsys.File
	path   string
	offset int64
	flags  int

	// refs counts descriptor-table entries sharing this record (Dup),
	// guarded by the process mu. The file's open handle (fsys.Retain) is
	// dropped when the last descriptor closes.
	refs int
}

// NewProcess creates a process over fs with cred, rooted at the file
// system's root directory.
func NewProcess(fs fsys.StackableFS, cred naming.Credentials) *Process {
	return &Process{
		fs:     fs,
		cred:   cred,
		fds:    make(map[int]*filedesc),
		nextFD: 3, // 0-2 reserved out of habit
	}
}

// cleanPath resolves p against the working directory and removes "." and
// ".." components. The result is relative to the file system root; ""
// denotes the root itself.
func (p *Process) cleanPath(path string) string {
	if clean, ok := cleanFast(p.cwd, path); ok {
		return clean
	}
	return cleanSlow(p.cwd, path)
}

// cleanFast answers, without allocating, for a path that is already clean:
// absolute or relative to an empty working directory, every component
// non-empty and neither "." nor "..". Most paths a program passes are.
func cleanFast(cwd, path string) (string, bool) {
	if strings.HasPrefix(path, "/") {
		path = path[1:]
	} else if cwd != "" {
		return "", false
	}
	start := 0
	for i := 0; i <= len(path); i++ {
		if i == len(path) || path[i] == '/' {
			if c := path[start:i]; c == "" || c == "." || c == ".." {
				return "", false
			}
			start = i + 1
		}
	}
	return path, true
}

// cleanSlow is cleanPath for every path, by splitting and rejoining.
func cleanSlow(cwd, path string) string {
	var parts []string
	if !strings.HasPrefix(path, "/") {
		parts = strings.Split(cwd, "/")
	}
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
		case "..":
			if len(parts) > 0 {
				parts = parts[:len(parts)-1]
			}
		default:
			parts = append(parts, c)
		}
	}
	// Drop empties from an empty cwd split.
	out := parts[:0]
	for _, c := range parts {
		if c != "" {
			out = append(out, c)
		}
	}
	return strings.Join(out, "/")
}

// mapErr converts file system errors to errno-style ones.
func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, naming.ErrNotFound):
		return fmt.Errorf("%w: %v", ENOENT, err)
	case errors.Is(err, naming.ErrNotContext):
		return fmt.Errorf("%w: %v", ENOTDIR, err)
	case errors.Is(err, naming.ErrPermission):
		return fmt.Errorf("%w: %v", EACCES, err)
	case errors.Is(err, fsys.ErrIsDirectory):
		return fmt.Errorf("%w: %v", EISDIR, err)
	case strings.Contains(err.Error(), "not found"):
		return fmt.Errorf("%w: %v", ENOENT, err)
	case strings.Contains(err.Error(), "not empty"):
		return fmt.Errorf("%w: %v", ENOTEMPTY, err)
	default:
		return err
	}
}

// Open opens path with flags, returning a file descriptor.
func (p *Process) Open(path string, flags int) (int, error) {
	clean := p.cleanPath(path)
	if clean == "" {
		return -1, EISDIR
	}
	var file fsys.File
	obj, rerr := p.fs.Resolve(clean, p.cred)
	switch {
	case rerr == nil:
		if flags&O_CREAT != 0 && flags&O_EXCL != 0 {
			return -1, fmt.Errorf("%w: %s", EEXIST, path)
		}
		f, err := fsys.AsFile(obj)
		if err != nil {
			return -1, mapErr(err)
		}
		file = f
	case flags&O_CREAT != 0:
		f, err := p.fs.Create(clean, p.cred)
		if err != nil {
			return -1, mapErr(err)
		}
		file = f
	default:
		return -1, mapErr(rerr)
	}
	if flags&O_TRUNC != 0 && flags&accessModeMask != O_RDONLY {
		if err := file.SetLength(0); err != nil {
			return -1, mapErr(err)
		}
	}
	// Record the open handle with the stack: an unlinked-while-open file
	// keeps its storage until the last descriptor on it closes.
	fsys.Retain(file)
	p.mu.Lock()
	defer p.mu.Unlock()
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = &filedesc{file: file, path: clean, flags: flags, refs: 1}
	return fd, nil
}

// Creat is open(path, O_WRONLY|O_CREAT|O_TRUNC).
func (p *Process) Creat(path string) (int, error) {
	return p.Open(path, O_WRONLY|O_CREAT|O_TRUNC)
}

// lookup returns the descriptor record for fd.
func (p *Process) lookup(fd int) (*filedesc, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.fds[fd]
	if !ok {
		return nil, fmt.Errorf("%w: %d", EBADF, fd)
	}
	return d, nil
}

// Close closes a descriptor. When the last descriptor sharing the record
// goes away the open handle is released, which lets the stack reclaim a
// file that was unlinked while open.
func (p *Process) Close(fd int) error {
	p.mu.Lock()
	d, ok := p.fds[fd]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("%w: %d", EBADF, fd)
	}
	delete(p.fds, fd)
	d.refs--
	last := d.refs == 0
	p.mu.Unlock()
	if last {
		return mapErr(fsys.Release(d.file))
	}
	return nil
}

// Dup duplicates a descriptor; the copy shares the file but has its own
// offset, like dup(2) does NOT — Spring's emulator kept shared offsets via
// a shared record, which this reproduces.
func (p *Process) Dup(fd int) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.fds[fd]
	if !ok {
		return -1, fmt.Errorf("%w: %d", EBADF, fd)
	}
	nfd := p.nextFD
	p.nextFD++
	d.refs++
	p.fds[nfd] = d // shared record: shared offset, like dup(2)
	return nfd, nil
}

// Read reads from the descriptor's current offset.
func (p *Process) Read(fd int, buf []byte) (int, error) {
	d, err := p.lookup(fd)
	if err != nil {
		return 0, err
	}
	if d.flags&accessModeMask == O_WRONLY {
		return 0, fmt.Errorf("%w: write-only descriptor", EBADF)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n, err := d.file.ReadAt(buf, d.offset)
	d.offset += int64(n)
	if err == io.EOF {
		if n == 0 {
			return 0, io.EOF
		}
		return n, nil
	}
	return n, mapErr(err)
}

// Write writes at the descriptor's current offset (or at EOF with
// O_APPEND).
func (p *Process) Write(fd int, buf []byte) (int, error) {
	d, err := p.lookup(fd)
	if err != nil {
		return 0, err
	}
	if d.flags&accessModeMask == O_RDONLY {
		return 0, fmt.Errorf("%w: read-only descriptor", EBADF)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.flags&O_APPEND != 0 {
		// A single atomic length-reserving write at the file: concurrent
		// appenders — other goroutines, other processes, other machines —
		// land on disjoint ranges instead of clobbering each other through
		// a read-length-then-write race.
		off, n, err := fsys.Append(d.file, buf)
		if err == nil {
			d.offset = off + int64(n)
		}
		return n, mapErr(err)
	}
	n, err := d.file.WriteAt(buf, d.offset)
	d.offset += int64(n)
	return n, mapErr(err)
}

// Pread reads at an explicit offset without moving the descriptor offset.
func (p *Process) Pread(fd int, buf []byte, off int64) (int, error) {
	d, err := p.lookup(fd)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset", EINVAL)
	}
	n, err := d.file.ReadAt(buf, off)
	if err == io.EOF && n > 0 {
		err = nil
	}
	return n, mapErr(err)
}

// Pwrite writes at an explicit offset without moving the descriptor
// offset.
func (p *Process) Pwrite(fd int, buf []byte, off int64) (int, error) {
	d, err := p.lookup(fd)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset", EINVAL)
	}
	n, err := d.file.WriteAt(buf, off)
	return n, mapErr(err)
}

// Lseek repositions the descriptor offset.
func (p *Process) Lseek(fd int, offset int64, whence int) (int64, error) {
	d, err := p.lookup(fd)
	if err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var base int64
	switch whence {
	case SEEK_SET:
		base = 0
	case SEEK_CUR:
		base = d.offset
	case SEEK_END:
		l, err := d.file.GetLength()
		if err != nil {
			return 0, mapErr(err)
		}
		base = l
	default:
		return 0, fmt.Errorf("%w: whence %d", EINVAL, whence)
	}
	if base+offset < 0 {
		return 0, fmt.Errorf("%w: negative offset", EINVAL)
	}
	d.offset = base + offset
	return d.offset, nil
}

// StatInfo mirrors the useful subset of struct stat.
type StatInfo struct {
	Path  string
	Size  int64
	IsDir bool
	Attrs fsys.Attributes
}

// Stat stats a path.
func (p *Process) Stat(path string) (StatInfo, error) {
	clean := p.cleanPath(path)
	if clean == "" {
		return StatInfo{Path: "/", IsDir: true}, nil
	}
	obj, err := p.fs.Resolve(clean, p.cred)
	if err != nil {
		return StatInfo{}, mapErr(err)
	}
	if _, ok := obj.(naming.Context); ok {
		return StatInfo{Path: clean, IsDir: true}, nil
	}
	f, err := fsys.AsFile(obj)
	if err != nil {
		return StatInfo{}, mapErr(err)
	}
	attrs, err := f.Stat()
	if err != nil {
		return StatInfo{}, mapErr(err)
	}
	return StatInfo{Path: clean, Size: attrs.Length, Attrs: attrs}, nil
}

// Fstat stats an open descriptor.
func (p *Process) Fstat(fd int) (StatInfo, error) {
	d, err := p.lookup(fd)
	if err != nil {
		return StatInfo{}, err
	}
	attrs, err := d.file.Stat()
	if err != nil {
		return StatInfo{}, mapErr(err)
	}
	return StatInfo{Path: d.path, Size: attrs.Length, Attrs: attrs}, nil
}

// Ftruncate sets the length of an open file.
func (p *Process) Ftruncate(fd int, length int64) error {
	d, err := p.lookup(fd)
	if err != nil {
		return err
	}
	if length < 0 {
		return EINVAL
	}
	return mapErr(d.file.SetLength(length))
}

// Fsync flushes an open file to stable storage.
func (p *Process) Fsync(fd int) error {
	d, err := p.lookup(fd)
	if err != nil {
		return err
	}
	return mapErr(d.file.Sync())
}

// Mkdir creates a directory.
func (p *Process) Mkdir(path string) error {
	clean := p.cleanPath(path)
	if clean == "" {
		return EEXIST
	}
	_, err := p.fs.CreateContext(clean, p.cred)
	return mapErr(err)
}

// Unlink removes a file (or an empty directory, like remove(3)).
func (p *Process) Unlink(path string) error {
	clean := p.cleanPath(path)
	if clean == "" {
		return EISDIR
	}
	return mapErr(p.fs.Remove(clean, p.cred))
}

// Rename atomically renames oldpath to newpath, replacing an existing
// newpath (rename(2)). Open descriptors on a replaced file keep working:
// the stack defers its reclamation to their last close.
func (p *Process) Rename(oldpath, newpath string) error {
	oldClean := p.cleanPath(oldpath)
	newClean := p.cleanPath(newpath)
	if oldClean == "" || newClean == "" {
		return EINVAL
	}
	return mapErr(p.fs.Rename(oldClean, newClean, p.cred))
}

// Chdir changes the working directory.
func (p *Process) Chdir(path string) error {
	clean := p.cleanPath(path)
	if clean != "" {
		obj, err := p.fs.Resolve(clean, p.cred)
		if err != nil {
			return mapErr(err)
		}
		if _, ok := obj.(naming.Context); !ok {
			return fmt.Errorf("%w: %s", ENOTDIR, path)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cwd = clean
	return nil
}

// Getcwd returns the working directory.
func (p *Process) Getcwd() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return "/" + p.cwd
}

// Dirent is one directory entry.
type Dirent struct {
	Name  string
	IsDir bool
}

// ReadDir lists a directory, sorted by name.
func (p *Process) ReadDir(path string) ([]Dirent, error) {
	clean := p.cleanPath(path)
	var ctx naming.Context = p.fs
	if clean != "" {
		obj, err := p.fs.Resolve(clean, p.cred)
		if err != nil {
			return nil, mapErr(err)
		}
		c, ok := obj.(naming.Context)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ENOTDIR, path)
		}
		ctx = c
	}
	bindings, err := ctx.List(p.cred)
	if err != nil {
		return nil, mapErr(err)
	}
	out := make([]Dirent, 0, len(bindings))
	for _, b := range bindings {
		_, isDir := b.Object.(naming.Context)
		out = append(out, Dirent{Name: b.Name, IsDir: isDir})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// OpenFDs returns the open descriptor numbers (diagnostics).
func (p *Process) OpenFDs() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, 0, len(p.fds))
	for fd := range p.fds {
		out = append(out, fd)
	}
	sort.Ints(out)
	return out
}

// ---- memory mapping (the files-are-memory-objects story) ----

// NewProcessVM creates a process whose address space is managed by vmm, so
// Mmap works. Files in Spring are memory objects; mapping one is the
// native access path the whole architecture is built around.
func NewProcessVM(fs fsys.StackableFS, cred naming.Credentials, vmm *vm.VMM) *Process {
	p := NewProcess(fs, cred)
	p.as = vm.NewAddressSpace(vmm)
	return p
}

// MappedRegion is the result of Mmap: a region of the process address
// space backed by the file.
type MappedRegion struct {
	p      *Process
	region *vm.Region
}

// Addr returns the region's base virtual address.
func (m *MappedRegion) Addr() int64 { return m.region.Base }

// Len returns the mapped length.
func (m *MappedRegion) Len() int64 { return m.region.Length }

// Read copies out of the mapping at a region-relative offset.
func (m *MappedRegion) Read(p []byte, off int64) (int, error) {
	return m.p.as.ReadVA(p, m.region.Base+off)
}

// Write copies into the mapping at a region-relative offset.
func (m *MappedRegion) Write(p []byte, off int64) (int, error) {
	return m.p.as.WriteVA(p, m.region.Base+off)
}

// Sync flushes modified mapped pages to the file's pager.
func (m *MappedRegion) Sync() error { return m.region.M.Sync() }

// Unmap removes the region from the address space.
func (m *MappedRegion) Unmap() error { return m.p.as.Unmap(m.region) }

// Mmap maps an open file into the process address space with the given
// length (0 maps the whole file). The descriptor's access mode bounds the
// mapping rights. Requires a process created with NewProcessVM.
func (p *Process) Mmap(fd int, length int64) (*MappedRegion, error) {
	if p.as == nil {
		return nil, fmt.Errorf("%w: process has no address space (use NewProcessVM)", EINVAL)
	}
	d, err := p.lookup(fd)
	if err != nil {
		return nil, err
	}
	access := vm.RightsWrite
	if d.flags&accessModeMask == O_RDONLY {
		access = vm.RightsRead
	}
	region, err := p.as.Map(d.file, access, length)
	if err != nil {
		return nil, mapErr(err)
	}
	return &MappedRegion{p: p, region: region}, nil
}
