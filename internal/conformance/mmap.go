package conformance

import (
	"bytes"
	"fmt"

	"springfs"
	"springfs/internal/unixapi"
)

// The mapped checks: a file mapped through a process's address space and
// stored into, with msync, truncation and cold reads around it.
// docs/POSIX.md ("Memory mapping") lists what they pin and what they leave
// out: a store stays invisible to another process's pread until msync.

const page = springfs.PageSize

// aaa is three pages of 'a', the mapped checks' file.
var aaa = bytes.Repeat([]byte{'a'}, 3*page)

// mapNew creates path in a fresh process holding data, opens it again and
// maps it whole; unmapClose undoes it.
func mapNew(s *Stack, path string, data []byte) (*unixapi.Process, int, *unixapi.MappedRegion, error) {
	p, err := s.NewProcess()
	if err != nil {
		return nil, 0, nil, err
	}
	if err := writePath(p, path, data); err != nil {
		return nil, 0, nil, err
	}
	fd, err := p.Open(path, unixapi.O_RDWR)
	if err != nil {
		return nil, 0, nil, err
	}
	m, err := p.Mmap(fd, 0)
	return p, fd, m, err
}

// unmapClose msyncs and unmaps m, then fsyncs and closes fd.
func unmapClose(p *unixapi.Process, fd int, m *unixapi.MappedRegion) error {
	if err := m.Sync(); err != nil {
		return err
	}
	if err := m.Unmap(); err != nil {
		return err
	}
	if err := p.Fsync(fd); err != nil {
		return err
	}
	return p.Close(fd)
}

// expectAt checks that read returns want at off.
func expectAt(what string, read func([]byte, int64) (int, error), off int64, want string) error {
	got := make([]byte, len(want))
	if _, err := read(got, off); err != nil {
		return fmt.Errorf("%s at %d: %w", what, off, err)
	}
	if string(got) != want {
		return fmt.Errorf("%s at %d reads %q, want %q", what, off, got, want)
	}
	return nil
}

// checkMmapMsync: stores through a mapping reach the file at msync, a
// fresh process's pread sees them after the caches are dropped, and a
// pwrite is seen by a later read-only mapping.
func checkMmapMsync(s *Stack) error {
	const path = "mmap-msync.bin"
	p, fd, m, err := mapNew(s, path, aaa)
	if err != nil {
		return err
	}
	if _, err := m.Write([]byte("STORED"), 0); err != nil {
		return err
	}
	if _, err := m.Write([]byte("SECOND"), 4196); err != nil {
		return err
	}
	if err := unmapClose(p, fd, m); err != nil {
		return err
	}
	if err := s.DropCaches(); err != nil {
		return err
	}
	q, err := s.NewProcess()
	if err != nil {
		return err
	}
	got, err := readPath(q, path)
	if err != nil {
		return err
	}
	if len(got) != len(aaa) || string(got[:6]) != "STORED" || string(got[4196:4202]) != "SECOND" {
		return fmt.Errorf("pread after msync: %d bytes, %q at 0, %q at 4196", len(got), got[:6], got[4196:4202])
	}
	qfd, err := q.Open(path, unixapi.O_WRONLY)
	if err != nil {
		return err
	}
	if _, err := q.Pwrite(qfd, []byte("PWRITE"), 2*page); err != nil {
		return err
	}
	if err := q.Fsync(qfd); err != nil {
		return err
	}
	if err := q.Close(qfd); err != nil {
		return err
	}
	r, err := s.NewProcess()
	if err != nil {
		return err
	}
	rfd, err := r.Open(path, unixapi.O_RDONLY)
	if err != nil {
		return err
	}
	defer r.Close(rfd)
	rm, err := r.Mmap(rfd, 0)
	if err != nil {
		return err
	}
	if err := expectAt("load", rm.Read, 2*page, "PWRITE"); err != nil {
		return err
	}
	if err := expectAt("load", rm.Read, 0, "STORED"); err != nil {
		return err
	}
	if err := rm.Unmap(); err != nil {
		return err
	}
	return q.Unlink(path)
}

// checkMmapLength: writing a mapped page back never changes the file's
// length, even where the page runs past the end.
func checkMmapLength(s *Stack) error {
	const path = "mmap-length.bin"
	p, fd, m, err := mapNew(s, path, pattern(path, 5000))
	if err != nil {
		return err
	}
	if _, err := m.Write([]byte("tail"), 4500); err != nil {
		return err
	}
	if err := unmapClose(p, fd, m); err != nil {
		return err
	}
	if err := s.DropCaches(); err != nil {
		return err
	}
	q, err := s.NewProcess()
	if err != nil {
		return err
	}
	if st, err := q.Stat(path); err != nil || st.Size != 5000 {
		return fmt.Errorf("stat after msync: size %d, %v; want 5000", st.Size, err)
	}
	return q.Unlink(path)
}

// checkMmapTrunc: a store through a mapping past a truncation another
// process makes before the msync does not survive it: the re-extended file
// reads zeros there.
func checkMmapTrunc(s *Stack) error {
	const path = "mmap-trunc.bin"
	p, fd, m, err := mapNew(s, path, aaa)
	if err != nil {
		return err
	}
	if _, err := m.Write([]byte("XXXX"), 4296); err != nil {
		return err
	}
	q, err := s.NewProcess()
	if err != nil {
		return err
	}
	qfd, err := q.Open(path, unixapi.O_RDWR)
	if err != nil {
		return err
	}
	defer q.Close(qfd)
	if err := q.Ftruncate(qfd, 4196); err != nil {
		return err
	}
	if err := unmapClose(p, fd, m); err != nil {
		return err
	}
	if err := q.Ftruncate(qfd, 3*page); err != nil {
		return err
	}
	if err := q.Fsync(qfd); err != nil {
		return err
	}
	if err := s.DropCaches(); err != nil {
		return err
	}
	r, err := s.NewProcess()
	if err != nil {
		return err
	}
	got, err := readPath(r, path)
	if err != nil {
		return err
	}
	want := append(aaa[:4196:4196], make([]byte, 3*page-4196)...)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("after truncate, msync and re-extend: %d bytes, not a up to 4196 and zeros after", len(got))
	}
	return q.Unlink(path)
}

// checkMmapLiveTrunc: a live mapping loads zeros past a truncation that
// another process made and then undid by growing the file again.
func checkMmapLiveTrunc(s *Stack) error {
	const path = "mmap-live-trunc.bin"
	p, fd, m, err := mapNew(s, path, aaa)
	if err != nil {
		return err
	}
	defer p.Close(fd)
	if err := expectAt("load", m.Read, page, "aaaa"); err != nil {
		return err
	}
	q, err := s.NewProcess()
	if err != nil {
		return err
	}
	qfd, err := q.Open(path, unixapi.O_RDWR)
	if err != nil {
		return err
	}
	defer q.Close(qfd)
	if err := q.Ftruncate(qfd, 4196); err != nil {
		return err
	}
	if err := q.Ftruncate(qfd, 3*page); err != nil {
		return err
	}
	if err := expectAt("load", m.Read, 4296, string(make([]byte, 8))); err != nil {
		return err
	}
	if err := m.Unmap(); err != nil {
		return err
	}
	return q.Unlink(path)
}
