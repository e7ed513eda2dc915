// Package conformance is the POSIX-conformance suite of the repo: semantic
// checks — rename-over, unlink-while-open, concurrent O_APPEND, sparse
// files, descriptor-offset rules — asserted through the unixapi process
// view against every stack shape the architecture supports (plain disk
// layer, SFS with compression or encryption stacked on it, a mirror of two
// SFS instances, and a DFS export used from remote machines).
//
// The checks are plain functions over a Stack, so `go test` runs the same
// suite over every shape.
package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"

	"springfs/internal/unixapi"
)

// Stack is one assembled file system stack under test.
type Stack struct {
	// Name identifies the shape ("disk", "sfs-compfs", ...).
	Name string
	// NewProcess returns a fresh POSIX process view over the stack. Local
	// shapes share one node (the processes are siblings on it); the DFS
	// shape dials a fresh client connection per process, so each process
	// lives on its own remote machine.
	NewProcess func() (*unixapi.Process, error)
	// DropCaches writes every modified page and block back and empties the
	// stack's caches, so the next access is cold.
	DropCaches func() error
	// Close tears the stack's nodes and connections down.
	Close func()
}

// Check is one named conformance assertion.
type Check struct {
	Name string
	Fn   func(s *Stack) error
}

// Checks returns the full suite. Every check uses file names prefixed with
// its own name, so checks are independent and can run against a shared
// image in any order.
func Checks() []Check {
	return []Check{
		{"basic-io", checkBasicIO},
		{"fd-offset", checkFDOffset},
		{"neg-offset", checkNegOffset},
		{"open-flags", checkOpenFlags},
		{"sparse", checkSparse},
		{"trunc-reextend", checkTruncReextend},
		{"overwrite-cold", checkOverwriteCold},
		{"rename-basic", checkRenameBasic},
		{"rename-over", checkRenameOver},
		{"rename-self", checkRenameSelf},
		{"rename-dirs", checkRenameDirs},
		{"rename-dir-reuse", checkRenameDirReuse},
		{"rename-over-open-dest", checkRenameOverOpenDest},
		{"unlink-while-open", checkUnlinkWhileOpen},
		{"unlink-recreate", checkUnlinkRecreate},
		{"append-concurrent", checkAppendConcurrent},
	}
}

// Run executes the whole suite against s, returning one error per failed
// check (nil for a fully conformant stack).
func Run(s *Stack) []error {
	var errs []error
	for _, c := range Checks() {
		if err := c.Fn(s); err != nil {
			errs = append(errs, fmt.Errorf("%s/%s: %w", s.Name, c.Name, err))
		}
	}
	return errs
}

// ---- helpers ----

func writeAll(p *unixapi.Process, fd int, data []byte) error {
	for len(data) > 0 {
		n, err := p.Write(fd, data)
		if err != nil {
			return err
		}
		if n == 0 {
			return errors.New("write made no progress")
		}
		data = data[n:]
	}
	return nil
}

func readFull(p *unixapi.Process, fd int, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	buf := make([]byte, n)
	for len(out) < n {
		r, err := p.Read(fd, buf[:n-len(out)])
		out = append(out, buf[:r]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
		if r == 0 {
			break
		}
	}
	return out, nil
}

// readPath opens path read-only and returns its whole content.
func readPath(p *unixapi.Process, path string) ([]byte, error) {
	fd, err := p.Open(path, unixapi.O_RDONLY)
	if err != nil {
		return nil, err
	}
	defer p.Close(fd)
	st, err := p.Fstat(fd)
	if err != nil {
		return nil, err
	}
	return readFull(p, fd, int(st.Size))
}

// writePath creates (or truncates) path with content.
func writePath(p *unixapi.Process, path string, data []byte) error {
	fd, err := p.Open(path, unixapi.O_CREAT|unixapi.O_TRUNC|unixapi.O_WRONLY)
	if err != nil {
		return err
	}
	if err := writeAll(p, fd, data); err != nil {
		p.Close(fd)
		return err
	}
	return p.Close(fd)
}

// pattern builds deterministic, tag-distinctive content.
func pattern(tag string, size int) []byte {
	out := make([]byte, size)
	seed := byte(len(tag))
	for i := range out {
		seed = seed*131 + byte(tag[i%len(tag)]) + byte(i)
		out[i] = seed
	}
	return out
}

// ---- checks ----

// checkBasicIO: create, write, read back, stat, remove.
func checkBasicIO(s *Stack) error {
	p, err := s.NewProcess()
	if err != nil {
		return err
	}
	want := pattern("basic", 3000)
	if err := writePath(p, "basic-io.bin", want); err != nil {
		return err
	}
	got, err := readPath(p, "basic-io.bin")
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("content mismatch: got %d bytes", len(got))
	}
	st, err := p.Stat("basic-io.bin")
	if err != nil {
		return err
	}
	if st.Size != int64(len(want)) {
		return fmt.Errorf("stat size %d, want %d", st.Size, len(want))
	}
	if err := p.Unlink("basic-io.bin"); err != nil {
		return err
	}
	if _, err := p.Stat("basic-io.bin"); !errors.Is(err, unixapi.ENOENT) {
		return fmt.Errorf("stat after unlink: %v, want ENOENT", err)
	}
	return nil
}

// checkFDOffset: sequential IO advances the offset; lseek repositions it;
// dup shares it; pread/pwrite leave it alone.
func checkFDOffset(s *Stack) error {
	p, err := s.NewProcess()
	if err != nil {
		return err
	}
	fd, err := p.Open("fd-offset.txt", unixapi.O_CREAT|unixapi.O_RDWR)
	if err != nil {
		return err
	}
	defer p.Close(fd)
	if err := writeAll(p, fd, []byte("hello ")); err != nil {
		return err
	}
	if err := writeAll(p, fd, []byte("world")); err != nil {
		return err
	}
	if off, err := p.Lseek(fd, 0, unixapi.SEEK_CUR); err != nil || off != 11 {
		return fmt.Errorf("offset after sequential writes: %d, %v; want 11", off, err)
	}
	if _, err := p.Lseek(fd, 0, unixapi.SEEK_SET); err != nil {
		return err
	}
	got, err := readFull(p, fd, 5)
	if err != nil || string(got) != "hello" {
		return fmt.Errorf("read at 0: %q, %v", got, err)
	}
	if _, err := p.Lseek(fd, 1, unixapi.SEEK_CUR); err != nil {
		return err
	}
	got, err = readFull(p, fd, 5)
	if err != nil || string(got) != "world" {
		return fmt.Errorf("read after SEEK_CUR: %q, %v", got, err)
	}
	if off, err := p.Lseek(fd, 0, unixapi.SEEK_END); err != nil || off != 11 {
		return fmt.Errorf("SEEK_END: %d, %v; want 11", off, err)
	}
	if _, err := p.Lseek(fd, -1, unixapi.SEEK_SET); !errors.Is(err, unixapi.EINVAL) {
		return fmt.Errorf("negative seek: %v, want EINVAL", err)
	}

	// dup(2) semantics: the duplicate shares the offset.
	dup, err := p.Dup(fd)
	if err != nil {
		return err
	}
	if _, err := p.Lseek(fd, 0, unixapi.SEEK_SET); err != nil {
		return err
	}
	if _, err := readFull(p, dup, 6); err != nil {
		return err
	}
	if off, err := p.Lseek(fd, 0, unixapi.SEEK_CUR); err != nil || off != 6 {
		return fmt.Errorf("offset through dup: %d, %v; want 6", off, err)
	}
	if err := p.Close(dup); err != nil {
		return err
	}
	// The original descriptor must survive closing its duplicate.
	if _, err := p.Lseek(fd, 0, unixapi.SEEK_SET); err != nil {
		return err
	}
	if got, err := readFull(p, fd, 5); err != nil || string(got) != "hello" {
		return fmt.Errorf("read after closing dup: %q, %v", got, err)
	}

	// pread/pwrite do not move the offset.
	before, err := p.Lseek(fd, 2, unixapi.SEEK_SET)
	if err != nil {
		return err
	}
	buf := make([]byte, 4)
	if _, err := p.Pread(fd, buf, 6); err != nil {
		return err
	}
	if _, err := p.Pwrite(fd, []byte("WO"), 6); err != nil {
		return err
	}
	if off, err := p.Lseek(fd, 0, unixapi.SEEK_CUR); err != nil || off != before {
		return fmt.Errorf("offset moved by pread/pwrite: %d, want %d", off, before)
	}
	if got, err := readPath(p, "fd-offset.txt"); err != nil || string(got) != "hello WOrld" {
		return fmt.Errorf("content after pwrite: %q, %v", got, err)
	}
	return p.Unlink("fd-offset.txt")
}

// checkNegOffset: pread and pwrite at a negative offset fail with EINVAL
// and leave the file's bytes and length alone.
func checkNegOffset(s *Stack) error {
	p, err := s.NewProcess()
	if err != nil {
		return err
	}
	want := pattern("neg", 5000)
	if err := writePath(p, "neg-offset.bin", want); err != nil {
		return err
	}
	fd, err := p.Open("neg-offset.bin", unixapi.O_RDWR)
	if err != nil {
		return err
	}
	defer p.Close(fd)
	for _, off := range []int64{-1, -4096, -1 << 62} {
		if n, err := p.Pread(fd, make([]byte, 16), off); n != 0 || !errors.Is(err, unixapi.EINVAL) {
			return fmt.Errorf("pread at %d: %d, %v; want 0, EINVAL", off, n, err)
		}
		if n, err := p.Pwrite(fd, []byte("must not land"), off); n != 0 || !errors.Is(err, unixapi.EINVAL) {
			return fmt.Errorf("pwrite at %d: %d, %v; want 0, EINVAL", off, n, err)
		}
	}
	if got, err := readPath(p, "neg-offset.bin"); err != nil || !bytes.Equal(got, want) {
		return fmt.Errorf("content after refused calls: %d bytes, %v; want the %d written", len(got), err, len(want))
	}
	return p.Unlink("neg-offset.bin")
}

// checkOpenFlags: O_EXCL refuses existing files, O_TRUNC discards content,
// opening a missing file without O_CREAT fails.
func checkOpenFlags(s *Stack) error {
	p, err := s.NewProcess()
	if err != nil {
		return err
	}
	if _, err := p.Open("open-flags.txt", unixapi.O_RDONLY); !errors.Is(err, unixapi.ENOENT) {
		return fmt.Errorf("open missing: %v, want ENOENT", err)
	}
	fd, err := p.Open("open-flags.txt", unixapi.O_CREAT|unixapi.O_EXCL|unixapi.O_WRONLY)
	if err != nil {
		return err
	}
	if err := writeAll(p, fd, []byte("content")); err != nil {
		return err
	}
	if err := p.Close(fd); err != nil {
		return err
	}
	if _, err := p.Open("open-flags.txt", unixapi.O_CREAT|unixapi.O_EXCL|unixapi.O_WRONLY); !errors.Is(err, unixapi.EEXIST) {
		return fmt.Errorf("O_EXCL on existing: %v, want EEXIST", err)
	}
	fd, err = p.Open("open-flags.txt", unixapi.O_TRUNC|unixapi.O_WRONLY)
	if err != nil {
		return err
	}
	if err := p.Close(fd); err != nil {
		return err
	}
	if st, err := p.Stat("open-flags.txt"); err != nil || st.Size != 0 {
		return fmt.Errorf("size after O_TRUNC: %d, %v; want 0", st.Size, err)
	}
	return p.Unlink("open-flags.txt")
}

// checkSparse: a write far past EOF leaves a hole that reads as zeros, and
// truncation up creates a zero-filled tail.
func checkSparse(s *Stack) error {
	p, err := s.NewProcess()
	if err != nil {
		return err
	}
	const hole = 256 << 10
	tail := pattern("sparse", 1000)
	fd, err := p.Open("sparse.bin", unixapi.O_CREAT|unixapi.O_RDWR)
	if err != nil {
		return err
	}
	defer p.Close(fd)
	if _, err := p.Pwrite(fd, tail, hole); err != nil {
		return err
	}
	st, err := p.Fstat(fd)
	if err != nil {
		return err
	}
	if st.Size != hole+int64(len(tail)) {
		return fmt.Errorf("length %d, want %d", st.Size, hole+len(tail))
	}
	// The hole reads as zeros.
	buf := make([]byte, 4096)
	for _, off := range []int64{0, 4096, hole - 4096} {
		n, err := p.Pread(fd, buf, off)
		if err != nil {
			return fmt.Errorf("read hole at %d: %w", off, err)
		}
		for i := 0; i < n; i++ {
			if buf[i] != 0 {
				return fmt.Errorf("hole at %d+%d reads %#x, want 0", off, i, buf[i])
			}
		}
	}
	got := make([]byte, len(tail))
	if _, err := p.Pread(fd, got, hole); err != nil {
		return err
	}
	if !bytes.Equal(got, tail) {
		return errors.New("data after hole corrupted")
	}
	// Truncating up zero-fills.
	if err := p.Ftruncate(fd, hole+int64(len(tail))+500); err != nil {
		return err
	}
	n, err := p.Pread(fd, buf[:500], hole+int64(len(tail)))
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if buf[i] != 0 {
			return fmt.Errorf("extended tail reads %#x at %d, want 0", buf[i], i)
		}
	}
	return p.Unlink("sparse.bin")
}

// checkTruncReextend: shrinking a file and then growing it again must not
// resurrect the old bytes — the region between the shrink point and the new
// length reads as zeros, whether the file is regrown by ftruncate or by a
// write past EOF, and whether the shrink lands on a block boundary or
// mid-block.
func checkTruncReextend(s *Stack) error {
	p, err := s.NewProcess()
	if err != nil {
		return err
	}
	old := pattern("reextend", 3*4096+77)
	fd, err := p.Open("reextend.bin", unixapi.O_CREAT|unixapi.O_RDWR)
	if err != nil {
		return err
	}
	defer p.Close(fd)
	if _, err := p.Pwrite(fd, old, 0); err != nil {
		return err
	}
	// Shrink mid-block, then regrow past the original length by ftruncate.
	const cut = 4096 + 100
	if err := p.Ftruncate(fd, cut); err != nil {
		return err
	}
	if err := p.Ftruncate(fd, int64(len(old))+4096); err != nil {
		return err
	}
	buf := make([]byte, len(old)+4096-cut)
	if _, err := p.Pread(fd, buf, cut); err != nil {
		return err
	}
	for i, b := range buf {
		if b != 0 {
			return fmt.Errorf("ftruncate regrow: byte %d reads %#x, want 0", cut+i, b)
		}
	}
	// The kept prefix is intact.
	head := make([]byte, cut)
	if _, err := p.Pread(fd, head, 0); err != nil {
		return err
	}
	if !bytes.Equal(head, old[:cut]) {
		return errors.New("ftruncate regrow corrupted the kept prefix")
	}
	// Shrink to zero, then regrow by a sparse write well past the old data.
	if err := p.Ftruncate(fd, 0); err != nil {
		return err
	}
	if _, err := p.Pwrite(fd, []byte{0xAA}, int64(len(old))); err != nil {
		return err
	}
	buf = make([]byte, len(old))
	if _, err := p.Pread(fd, buf, 0); err != nil {
		return err
	}
	for i, b := range buf {
		if b != 0 {
			return fmt.Errorf("write regrow: byte %d reads %#x, want 0", i, b)
		}
	}
	return p.Unlink("reextend.bin")
}

// checkOverwriteCold: writes that replace whole pages of a file whose pages
// are not cached take a write grant instead of paging the old bytes in
// (vm.FileCache.grant). Nothing of the old content may survive where the
// write landed and nothing around it may change — through a cache drop, at
// a page straddling end-of-file, and when the overwritten pages are then
// cut mid-page by a truncate and re-exposed.
func checkOverwriteCold(s *Stack) error {
	p, err := s.NewProcess()
	if err != nil {
		return err
	}
	const page = 4096
	model := pattern("overwrite-old", 9*page+1000) // EOF falls inside page 9
	fd, err := p.Open("overwrite.bin", unixapi.O_CREAT|unixapi.O_RDWR)
	if err != nil {
		return err
	}
	defer p.Close(fd)
	pwrite := func(data []byte, off int) error {
		if _, err := p.Pwrite(fd, data, int64(off)); err != nil {
			return err
		}
		if off+len(data) > len(model) {
			model = append(model, make([]byte, off+len(data)-len(model))...)
		}
		copy(model[off:], data)
		return nil
	}
	verify := func(step string) error {
		st, err := p.Fstat(fd)
		if err != nil {
			return err
		}
		if st.Size != int64(len(model)) {
			return fmt.Errorf("%s: size %d, want %d", step, st.Size, len(model))
		}
		got := make([]byte, len(model))
		if _, err := p.Pread(fd, got, 0); err != nil && err != io.EOF {
			return err
		}
		for i := range model {
			if got[i] != model[i] {
				return fmt.Errorf("%s: byte %d reads %#x, want %#x", step, i, got[i], model[i])
			}
		}
		return nil
	}
	cold := func() error {
		if err := p.Fsync(fd); err != nil {
			return err
		}
		return s.DropCaches()
	}
	if err := pwrite(model, 0); err != nil {
		return err
	}

	// Whole cold pages, and an unaligned write whose middle is whole pages
	// and whose two ends are not.
	if err := cold(); err != nil {
		return err
	}
	if err := pwrite(pattern("overwrite-whole", 3*page), 2*page); err != nil {
		return err
	}
	if err := pwrite(pattern("overwrite-ragged", 2*page+300), 6*page-100); err != nil {
		return err
	}
	if err := verify("after cold overwrite"); err != nil {
		return err
	}
	if err := cold(); err != nil {
		return err
	}
	if err := verify("after cold overwrite and cache drop"); err != nil {
		return err
	}

	// The page straddling EOF, replaced whole: the file grows to the end
	// of the write and the old tail is gone.
	if err := pwrite(pattern("overwrite-eof", page), 9*page); err != nil {
		return err
	}
	if err := verify("after overwriting the EOF page"); err != nil {
		return err
	}
	if err := cold(); err != nil {
		return err
	}

	// Overwrite whole pages, cut the file in the middle of one of them,
	// and re-extend: the cut bytes read back as zeros, not as the write.
	if err := pwrite(pattern("overwrite-cut", 4*page), 4*page); err != nil {
		return err
	}
	const cut = 5*page + 123
	if err := p.Ftruncate(fd, cut); err != nil {
		return err
	}
	if err := p.Ftruncate(fd, 8*page); err != nil {
		return err
	}
	model = append(model[:cut], make([]byte, 8*page-cut)...)
	if err := verify("after truncating an overwritten page and re-extending"); err != nil {
		return err
	}
	if err := cold(); err != nil {
		return err
	}
	if err := verify("after truncate, re-extend and cache drop"); err != nil {
		return err
	}
	return p.Unlink("overwrite.bin")
}

// checkRenameBasic: after a rename the old name is gone and the new name
// has the content.
func checkRenameBasic(s *Stack) error {
	p, err := s.NewProcess()
	if err != nil {
		return err
	}
	want := pattern("ren-basic", 2000)
	if err := writePath(p, "ren-src.bin", want); err != nil {
		return err
	}
	if err := p.Rename("ren-src.bin", "ren-dst.bin"); err != nil {
		return err
	}
	if _, err := p.Stat("ren-src.bin"); !errors.Is(err, unixapi.ENOENT) {
		return fmt.Errorf("old name after rename: %v, want ENOENT", err)
	}
	got, err := readPath(p, "ren-dst.bin")
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return errors.New("content lost across rename")
	}
	if err := p.Rename("ren-missing", "ren-x"); !errors.Is(err, unixapi.ENOENT) {
		return fmt.Errorf("rename of missing source: %v, want ENOENT", err)
	}
	return p.Unlink("ren-dst.bin")
}

// checkRenameOver: rename onto an existing name atomically replaces it.
func checkRenameOver(s *Stack) error {
	p, err := s.NewProcess()
	if err != nil {
		return err
	}
	srcData := pattern("ren-over-src", 1500)
	dstData := pattern("ren-over-dst", 900)
	if err := writePath(p, "ren-over-src", srcData); err != nil {
		return err
	}
	if err := writePath(p, "ren-over-dst", dstData); err != nil {
		return err
	}
	if err := p.Rename("ren-over-src", "ren-over-dst"); err != nil {
		return err
	}
	if _, err := p.Stat("ren-over-src"); !errors.Is(err, unixapi.ENOENT) {
		return fmt.Errorf("source after rename-over: %v, want ENOENT", err)
	}
	got, err := readPath(p, "ren-over-dst")
	if err != nil {
		return err
	}
	if !bytes.Equal(got, srcData) {
		return errors.New("destination does not carry the source content")
	}
	return p.Unlink("ren-over-dst")
}

// checkRenameSelf: renaming a name onto itself succeeds and changes
// nothing.
func checkRenameSelf(s *Stack) error {
	p, err := s.NewProcess()
	if err != nil {
		return err
	}
	want := pattern("ren-self", 800)
	if err := writePath(p, "ren-self.bin", want); err != nil {
		return err
	}
	if err := p.Rename("ren-self.bin", "ren-self.bin"); err != nil {
		return fmt.Errorf("self-rename: %w", err)
	}
	got, err := readPath(p, "ren-self.bin")
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return errors.New("self-rename changed the content")
	}
	return p.Unlink("ren-self.bin")
}

// checkRenameDirs: a file moves between directories, keeping its content.
func checkRenameDirs(s *Stack) error {
	p, err := s.NewProcess()
	if err != nil {
		return err
	}
	if err := p.Mkdir("ren-d1"); err != nil {
		return err
	}
	if err := p.Mkdir("ren-d2"); err != nil {
		return err
	}
	want := pattern("ren-dirs", 1200)
	if err := writePath(p, "ren-d1/f.bin", want); err != nil {
		return err
	}
	if err := p.Rename("ren-d1/f.bin", "ren-d2/g.bin"); err != nil {
		return err
	}
	if _, err := p.Stat("ren-d1/f.bin"); !errors.Is(err, unixapi.ENOENT) {
		return fmt.Errorf("old path after cross-dir rename: %v, want ENOENT", err)
	}
	got, err := readPath(p, "ren-d2/g.bin")
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return errors.New("content lost across cross-dir rename")
	}
	if err := p.Unlink("ren-d2/g.bin"); err != nil {
		return err
	}
	if err := p.Unlink("ren-d1"); err != nil {
		return err
	}
	return p.Unlink("ren-d2")
}

// checkRenameDirReuse: after a directory is renamed, its old name is free:
// a directory and a file created at the old paths are new objects, and the
// files that moved — one of them through a descriptor opened before the
// rename — keep their own content. (A path-keyed layer that leaves its
// handle table filed under the old paths hands the moved file's wrapper to
// the new file, and the two then share storage.)
func checkRenameDirReuse(s *Stack) error {
	p, err := s.NewProcess()
	if err != nil {
		return err
	}
	moved := pattern("rdr-moved", 5000)
	fresh := pattern("rdr-fresh", 700)
	if err := p.Mkdir("rdr-d"); err != nil {
		return err
	}
	if err := p.Mkdir("rdr-d/sub"); err != nil {
		return err
	}
	if err := writePath(p, "rdr-d/f.bin", moved); err != nil {
		return err
	}
	if err := writePath(p, "rdr-d/sub/g.bin", moved[:900]); err != nil {
		return err
	}
	fd, err := p.Open("rdr-d/f.bin", unixapi.O_RDWR)
	if err != nil {
		return err
	}
	defer p.Close(fd)
	if err := p.Rename("rdr-d", "rdr-e"); err != nil {
		return err
	}
	if err := p.Mkdir("rdr-d"); err != nil {
		return fmt.Errorf("mkdir at the renamed directory's old name: %w", err)
	}
	if err := writePath(p, "rdr-d/f.bin", fresh); err != nil {
		return err
	}
	// The descriptor follows the file, not the path.
	patch := []byte("through the old descriptor")
	if _, err := p.Pwrite(fd, patch, 100); err != nil {
		return err
	}
	copy(moved[100:], patch)
	for _, c := range []struct {
		path string
		want []byte
	}{
		{"rdr-e/f.bin", moved},
		{"rdr-e/sub/g.bin", pattern("rdr-moved", 5000)[:900]},
		{"rdr-d/f.bin", fresh},
	} {
		got, err := readPath(p, c.path)
		if err != nil {
			return fmt.Errorf("%s: %w", c.path, err)
		}
		if !bytes.Equal(got, c.want) {
			return fmt.Errorf("%s holds %d bytes that are not its own after the directory rename", c.path, len(got))
		}
	}
	if _, err := p.Stat("rdr-d/sub"); !errors.Is(err, unixapi.ENOENT) {
		return fmt.Errorf("subdirectory under the old name: %v, want ENOENT", err)
	}
	for _, path := range []string{"rdr-d/f.bin", "rdr-d", "rdr-e/f.bin", "rdr-e/sub/g.bin", "rdr-e/sub", "rdr-e"} {
		if err := p.Unlink(path); err != nil {
			return fmt.Errorf("unlink %s: %w", path, err)
		}
	}
	return nil
}

// checkRenameOverOpenDest: replacing an open file by rename must not
// disturb readers of the old file; they keep the replaced content until
// they close.
func checkRenameOverOpenDest(s *Stack) error {
	pA, err := s.NewProcess()
	if err != nil {
		return err
	}
	pB, err := s.NewProcess()
	if err != nil {
		return err
	}
	oldData := pattern("roo-old", 1800)
	newData := pattern("roo-new", 1100)
	if err := writePath(pA, "roo-dst", oldData); err != nil {
		return err
	}
	if err := writePath(pB, "roo-src", newData); err != nil {
		return err
	}
	fd, err := pA.Open("roo-dst", unixapi.O_RDONLY)
	if err != nil {
		return err
	}
	if err := pB.Rename("roo-src", "roo-dst"); err != nil {
		pA.Close(fd)
		return err
	}
	// The open descriptor still sees the replaced file.
	got, err := readFull(pA, fd, len(oldData))
	if err != nil {
		pA.Close(fd)
		return fmt.Errorf("reading replaced file through open fd: %w", err)
	}
	if !bytes.Equal(got, oldData) {
		pA.Close(fd)
		return errors.New("open descriptor lost the replaced content")
	}
	// The path sees the new file.
	got, err = readPath(pB, "roo-dst")
	if err != nil {
		pA.Close(fd)
		return err
	}
	if !bytes.Equal(got, newData) {
		pA.Close(fd)
		return errors.New("path does not carry the renamed content")
	}
	if err := pA.Close(fd); err != nil {
		return fmt.Errorf("closing fd on replaced file: %w", err)
	}
	// Closing the last handle must not damage the file now at the name.
	got, err = readPath(pA, "roo-dst")
	if err != nil {
		return err
	}
	if !bytes.Equal(got, newData) {
		return errors.New("renamed content damaged by the replaced file's last close")
	}
	return pA.Unlink("roo-dst")
}

// checkUnlinkWhileOpen: an unlinked file stays fully usable through open
// descriptors — including ones in other processes — until the last close.
func checkUnlinkWhileOpen(s *Stack) error {
	pA, err := s.NewProcess()
	if err != nil {
		return err
	}
	pB, err := s.NewProcess()
	if err != nil {
		return err
	}
	data := pattern("uwo", 2500)
	fd, err := pA.Open("uwo.bin", unixapi.O_CREAT|unixapi.O_RDWR)
	if err != nil {
		return err
	}
	if err := writeAll(pA, fd, data); err != nil {
		pA.Close(fd)
		return err
	}
	if err := pA.Fsync(fd); err != nil {
		pA.Close(fd)
		return err
	}
	// Another process unlinks the name.
	if err := pB.Unlink("uwo.bin"); err != nil {
		pA.Close(fd)
		return err
	}
	if _, err := pB.Stat("uwo.bin"); !errors.Is(err, unixapi.ENOENT) {
		pA.Close(fd)
		return fmt.Errorf("stat after unlink: %v, want ENOENT", err)
	}
	// Reads and writes through the open descriptor keep working.
	got := make([]byte, len(data))
	if _, err := pA.Pread(fd, got, 0); err != nil {
		pA.Close(fd)
		return fmt.Errorf("read through fd after unlink: %w", err)
	}
	if !bytes.Equal(got, data) {
		pA.Close(fd)
		return errors.New("unlinked file's data lost while open")
	}
	extra := pattern("uwo-extra", 700)
	if _, err := pA.Pwrite(fd, extra, int64(len(data))); err != nil {
		pA.Close(fd)
		return fmt.Errorf("write through fd after unlink: %w", err)
	}
	if err := pA.Fsync(fd); err != nil {
		pA.Close(fd)
		return fmt.Errorf("fsync of unlinked open file: %w", err)
	}
	got = make([]byte, len(extra))
	if _, err := pA.Pread(fd, got, int64(len(data))); err != nil {
		pA.Close(fd)
		return err
	}
	if !bytes.Equal(got, extra) {
		pA.Close(fd)
		return errors.New("write to unlinked open file lost")
	}
	return pA.Close(fd)
}

// checkUnlinkRecreate: while an unlinked file lives on through an open
// descriptor, a new file created at the same name is fully independent —
// the orphan's storage must not be shared or corrupted.
func checkUnlinkRecreate(s *Stack) error {
	pA, err := s.NewProcess()
	if err != nil {
		return err
	}
	pB, err := s.NewProcess()
	if err != nil {
		return err
	}
	oldData := pattern("ur-old", 3200)
	fd, err := pA.Open("ur.bin", unixapi.O_CREAT|unixapi.O_RDWR)
	if err != nil {
		return err
	}
	if err := writeAll(pA, fd, oldData); err != nil {
		pA.Close(fd)
		return err
	}
	if err := pA.Fsync(fd); err != nil {
		pA.Close(fd)
		return err
	}
	if err := pB.Unlink("ur.bin"); err != nil {
		pA.Close(fd)
		return err
	}
	newData := pattern("ur-new", 2100)
	if err := writePath(pB, "ur.bin", newData); err != nil {
		pA.Close(fd)
		return fmt.Errorf("recreate at unlinked name: %w", err)
	}
	// Old handle still sees the orphan; path sees the new file.
	got := make([]byte, len(oldData))
	if _, err := pA.Pread(fd, got, 0); err != nil {
		pA.Close(fd)
		return err
	}
	if !bytes.Equal(got, oldData) {
		pA.Close(fd)
		return errors.New("orphan content corrupted by recreation at the same name")
	}
	if err := pA.Close(fd); err != nil {
		return err
	}
	// Closing the orphan must not free blocks now owned by the new file.
	got, err = readPath(pB, "ur.bin")
	if err != nil {
		return err
	}
	if !bytes.Equal(got, newData) {
		return errors.New("new file corrupted by orphan reclamation")
	}
	return pB.Unlink("ur.bin")
}

// checkAppendConcurrent: goroutines across processes append fixed-size
// records to one O_APPEND file; every record must land whole, exactly
// once, on a disjoint range.
func checkAppendConcurrent(s *Stack) error {
	const (
		procs      = 3
		goroutines = 4
		records    = 8
	)
	record := func(proc, g, seq int) []byte {
		return []byte(fmt.Sprintf("%02d:%02d:%06d\n", proc, g, seq))
	}
	recLen := len(record(0, 0, 0))

	setup, err := s.NewProcess()
	if err != nil {
		return err
	}
	if err := writePath(setup, "append.log", nil); err != nil {
		return err
	}

	var wg sync.WaitGroup
	errCh := make(chan error, procs*goroutines)
	for pi := 0; pi < procs; pi++ {
		proc, err := s.NewProcess()
		if err != nil {
			return err
		}
		for g := 0; g < goroutines; g++ {
			// One descriptor per goroutine: the atomicity must come from the
			// append itself, not from descriptor locking.
			fd, err := proc.Open("append.log", unixapi.O_WRONLY|unixapi.O_APPEND)
			if err != nil {
				return err
			}
			wg.Add(1)
			go func(proc *unixapi.Process, fd, pi, g int) {
				defer wg.Done()
				defer proc.Close(fd)
				for seq := 0; seq < records; seq++ {
					if err := writeAll(proc, fd, record(pi, g, seq)); err != nil {
						errCh <- fmt.Errorf("proc %d g %d: %w", pi, g, err)
						return
					}
				}
			}(proc, fd, pi, g)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}

	got, err := readPath(setup, "append.log")
	if err != nil {
		return err
	}
	total := procs * goroutines * records
	if len(got) != total*recLen {
		return fmt.Errorf("file is %d bytes, want %d (%d records x %d): appends overlapped",
			len(got), total*recLen, total, recLen)
	}
	seen := make(map[string]bool, total)
	for i := 0; i < total; i++ {
		rec := string(got[i*recLen : (i+1)*recLen])
		if rec[len(rec)-1] != '\n' {
			return fmt.Errorf("record %d torn: %q", i, rec)
		}
		if seen[rec] {
			return fmt.Errorf("record %q appended twice", rec)
		}
		seen[rec] = true
	}
	for pi := 0; pi < procs; pi++ {
		for g := 0; g < goroutines; g++ {
			for seq := 0; seq < records; seq++ {
				if !seen[string(record(pi, g, seq))] {
					return fmt.Errorf("record %02d:%02d:%06d lost", pi, g, seq)
				}
			}
		}
	}
	return setup.Unlink("append.log")
}
