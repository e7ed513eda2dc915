package fsys

import (
	"io"
	"sync"

	"springfs/internal/vm"
)

// MappedIO implements file read/write operations the way Spring file
// systems do: by mapping the file into the file server's address space and
// reading/writing the mapped memory (Section 4.2.1: "COMPFS implements the
// read/write operations the same way as other Spring file systems: it maps
// the file into its address space and reads/writes the mapped memory").
//
// Because the server maps the file through the local VMM, the read/write
// path and client memory mappings of the same file share one page cache:
// the bind operation returns the same cache-rights for equivalent memory
// objects.
type MappedIO struct {
	vmm  *vm.VMM
	mobj vm.MemoryObject

	mu        sync.Mutex
	mapping   *vm.Mapping
	readAhead int
}

// NewMappedIO creates the read/write engine for mobj using the server's
// local VMM.
func NewMappedIO(vmm *vm.VMM, mobj vm.MemoryObject) *MappedIO {
	return &MappedIO{vmm: vmm, mobj: mobj}
}

// SetReadAhead asks the VMM to request up to extra additional pages per
// fault when the file's pager supports page-in hints — the read-ahead /
// clustering extension of the paper's Section 8.
func (m *MappedIO) SetReadAhead(extra int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.readAhead = extra
	if m.mapping != nil {
		m.mapping.Cache().SetReadAhead(extra)
	}
}

// mapSelf lazily maps the file read-write into the server's address space.
func (m *MappedIO) mapSelf() (*vm.Mapping, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.mapping == nil {
		mapping, err := m.vmm.Map(m.mobj, vm.RightsWrite)
		if err != nil {
			return nil, err
		}
		m.mapping = mapping
		if m.readAhead != 0 {
			mapping.Cache().SetReadAhead(m.readAhead)
		}
	}
	return m.mapping, nil
}

// ReadAt reads from the mapped file with io.ReaderAt EOF semantics against
// the file's current length.
func (m *MappedIO) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, ErrNegativeOffset
	}
	length, err := m.mobj.GetLength()
	if err != nil {
		return 0, err
	}
	if off >= length {
		return 0, io.EOF
	}
	n := len(p)
	var eof bool
	if off+int64(n) > length {
		n = int(length - off)
		eof = true
	}
	mapping, err := m.mapSelf()
	if err != nil {
		return 0, err
	}
	read, err := mapping.ReadAt(p[:n], off)
	if err != nil {
		return read, err
	}
	if eof {
		return read, io.EOF
	}
	return read, nil
}

// WriteAt writes through the mapped file, extending the file length when
// the write ends past the current end of file.
func (m *MappedIO) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, ErrNegativeOffset
	}
	mapping, err := m.mapSelf()
	if err != nil {
		return 0, err
	}
	n, err := mapping.WriteAt(p, off)
	if err != nil {
		return n, err
	}
	length, err := m.mobj.GetLength()
	if err != nil {
		return n, err
	}
	if off+int64(n) > length {
		if err := m.mobj.SetLength(off + int64(n)); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Sync pushes modified cached pages back to the pager.
func (m *MappedIO) Sync() error {
	m.mu.Lock()
	mapping := m.mapping
	m.mu.Unlock()
	if mapping == nil {
		return nil
	}
	return mapping.Sync()
}
