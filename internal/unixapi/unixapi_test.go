package unixapi

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"springfs/internal/blockdev"
	"springfs/internal/coherency"
	"springfs/internal/compfs"
	"springfs/internal/disklayer"
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// newSFS builds SFS (coherency on disk) on a fresh node and returns it
// with the node's VMM.
func newSFS(t *testing.T) (*coherency.CohFS, *vm.VMM) {
	t.Helper()
	node := spring.NewNode("n")
	t.Cleanup(node.Stop)
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	dev := blockdev.NewMem(2048, blockdev.ProfileNone)
	if err := disklayer.Mkfs(dev, disklayer.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	domain := spring.NewDomain(node, "disk")
	disk, err := disklayer.Mount(dev, domain, vmm, "disk0a")
	if err != nil {
		t.Fatal(err)
	}
	sfs := coherency.New(domain, vmm, "sfs")
	if err := sfs.StackOn(disk); err != nil {
		t.Fatal(err)
	}
	return sfs, vmm
}

// newProc builds a process over SFS.
func newProc(t *testing.T) *Process {
	t.Helper()
	sfs, _ := newSFS(t)
	return NewProcess(sfs, naming.Root)
}

func TestOpenWriteReadClose(t *testing.T) {
	p := newProc(t)
	fd, err := p.Open("/hello.txt", O_RDWR|O_CREAT)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	msg := []byte("hello unix api")
	if n, err := p.Write(fd, msg); n != len(msg) || err != nil {
		t.Fatalf("write = %d, %v", n, err)
	}
	if _, err := p.Lseek(fd, 0, SEEK_SET); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if n, err := p.Read(fd, got); n != len(msg) || err != nil {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("read %q", got)
	}
	// Sequential reads advance the offset to EOF.
	if _, err := p.Read(fd, got); err != io.EOF {
		t.Errorf("read at EOF = %v, want io.EOF", err)
	}
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(fd, got); !errors.Is(err, EBADF) {
		t.Errorf("read after close = %v, want EBADF", err)
	}
}

func TestOpenFlags(t *testing.T) {
	p := newProc(t)
	// O_CREAT|O_EXCL fails on an existing file.
	fd, err := p.Creat("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(fd, []byte("content")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Open("/f", O_CREAT|O_EXCL|O_RDWR); !errors.Is(err, EEXIST) {
		t.Errorf("O_EXCL on existing = %v, want EEXIST", err)
	}
	// Open without O_CREAT fails on a missing file.
	if _, err := p.Open("/missing", O_RDONLY); !errors.Is(err, ENOENT) {
		t.Errorf("open missing = %v, want ENOENT", err)
	}
	// O_TRUNC empties the file.
	fd2, err := p.Open("/f", O_WRONLY|O_TRUNC)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Fstat(fd2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 0 {
		t.Errorf("size after O_TRUNC = %d", st.Size)
	}
	// Access mode enforcement.
	rd, err := p.Open("/f", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(rd, []byte("x")); !errors.Is(err, EBADF) {
		t.Errorf("write to O_RDONLY = %v, want EBADF", err)
	}
	wr, err := p.Open("/f", O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(wr, make([]byte, 1)); !errors.Is(err, EBADF) {
		t.Errorf("read from O_WRONLY = %v, want EBADF", err)
	}
}

func TestAppendMode(t *testing.T) {
	p := newProc(t)
	fd, err := p.Open("/log", O_WRONLY|O_CREAT|O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"one\n", "two\n", "three\n"} {
		if _, err := p.Write(fd, []byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := p.Fstat(fd)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 14 {
		t.Errorf("size = %d, want 14", st.Size)
	}
	// Even after an lseek, appends land at EOF.
	if _, err := p.Lseek(fd, 0, SEEK_SET); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(fd, []byte("four\n")); err != nil {
		t.Fatal(err)
	}
	rd, err := p.Open("/log", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, _ := p.Read(rd, buf)
	if string(buf[:n]) != "one\ntwo\nthree\nfour\n" {
		t.Errorf("log = %q", buf[:n])
	}
}

func TestLseekWhence(t *testing.T) {
	p := newProc(t)
	fd, err := p.Open("/s", O_RDWR|O_CREAT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(fd, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if off, _ := p.Lseek(fd, 2, SEEK_SET); off != 2 {
		t.Errorf("SEEK_SET = %d", off)
	}
	if off, _ := p.Lseek(fd, 3, SEEK_CUR); off != 5 {
		t.Errorf("SEEK_CUR = %d", off)
	}
	if off, _ := p.Lseek(fd, -4, SEEK_END); off != 6 {
		t.Errorf("SEEK_END = %d", off)
	}
	buf := make([]byte, 1)
	if _, err := p.Read(fd, buf); err != nil || buf[0] != '6' {
		t.Errorf("read after seeks = %q, %v", buf, err)
	}
	if _, err := p.Lseek(fd, -100, SEEK_SET); !errors.Is(err, EINVAL) {
		t.Errorf("negative seek = %v, want EINVAL", err)
	}
	if _, err := p.Lseek(fd, 0, 99); !errors.Is(err, EINVAL) {
		t.Errorf("bad whence = %v, want EINVAL", err)
	}
}

func TestPreadPwrite(t *testing.T) {
	p := newProc(t)
	fd, err := p.Open("/p", O_RDWR|O_CREAT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pwrite(fd, []byte("abcdef"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := p.Pread(fd, buf, 2); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "cde" {
		t.Errorf("pread = %q", buf)
	}
	// Neither moved the descriptor offset.
	if off, _ := p.Lseek(fd, 0, SEEK_CUR); off != 0 {
		t.Errorf("offset moved to %d", off)
	}
}

func TestDirectoriesAndCwd(t *testing.T) {
	p := newProc(t)
	if err := p.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := p.Mkdir("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := p.Chdir("/a/b"); err != nil {
		t.Fatal(err)
	}
	if got := p.Getcwd(); got != "/a/b" {
		t.Errorf("cwd = %q", got)
	}
	// Relative paths resolve against the cwd; .. walks up.
	fd, err := p.Open("rel.txt", O_CREAT|O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(fd, []byte("relative")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Stat("/a/b/rel.txt"); err != nil {
		t.Errorf("absolute view of relative create: %v", err)
	}
	if _, err := p.Stat("../b/rel.txt"); err != nil {
		t.Errorf("dot-dot path: %v", err)
	}
	if err := p.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	if got := p.Getcwd(); got != "/a" {
		t.Errorf("cwd after .. = %q", got)
	}
	// Chdir to a file fails.
	if err := p.Chdir("b/rel.txt"); !errors.Is(err, ENOTDIR) {
		t.Errorf("chdir to file = %v, want ENOTDIR", err)
	}
	// ReadDir lists sorted entries with kinds.
	ents, err := p.ReadDir("/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != "rel.txt" || ents[0].IsDir {
		t.Errorf("readdir = %+v", ents)
	}
	ents, err = p.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || !ents[0].IsDir {
		t.Errorf("root readdir = %+v", ents)
	}
}

func TestUnlinkAndErrors(t *testing.T) {
	p := newProc(t)
	if err := p.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	fd, err := p.Creat("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	p.Close(fd)
	if err := p.Unlink("/d"); !errors.Is(err, ENOTEMPTY) {
		t.Errorf("unlink non-empty dir = %v, want ENOTEMPTY", err)
	}
	if err := p.Unlink("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := p.Unlink("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Stat("/d"); !errors.Is(err, ENOENT) {
		t.Errorf("stat removed dir = %v, want ENOENT", err)
	}
}

func TestDupSharesOffset(t *testing.T) {
	p := newProc(t)
	fd, err := p.Open("/dup", O_RDWR|O_CREAT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(fd, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Lseek(fd, 0, SEEK_SET); err != nil {
		t.Fatal(err)
	}
	fd2, err := p.Dup(fd)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := p.Read(fd, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(fd2, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "23" {
		t.Errorf("dup did not share the offset: read %q", buf)
	}
	// Closing one leaves the other usable.
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(fd2, buf); err != nil {
		t.Errorf("read through surviving dup: %v", err)
	}
}

func TestFtruncateAndFsync(t *testing.T) {
	p := newProc(t)
	fd, err := p.Open("/t", O_RDWR|O_CREAT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(fd, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := p.Ftruncate(fd, 100); err != nil {
		t.Fatal(err)
	}
	st, _ := p.Fstat(fd)
	if st.Size != 100 {
		t.Errorf("size after ftruncate = %d", st.Size)
	}
	if err := p.Ftruncate(fd, -1); !errors.Is(err, EINVAL) {
		t.Errorf("negative ftruncate = %v", err)
	}
	if err := p.Fsync(fd); err != nil {
		t.Errorf("fsync: %v", err)
	}
}

// TestWorksOverCompressionStack runs the same syscall workout over a
// compression stack — the point of the adapter: UNIX programs cannot tell
// which layers sit below.
func TestWorksOverCompressionStack(t *testing.T) {
	node := spring.NewNode("n")
	defer node.Stop()
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	dev := blockdev.NewMem(2048, blockdev.ProfileNone)
	if err := disklayer.Mkfs(dev, disklayer.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	domain := spring.NewDomain(node, "disk")
	disk, err := disklayer.Mount(dev, domain, vmm, "disk0a")
	if err != nil {
		t.Fatal(err)
	}
	sfs := coherency.New(domain, vmm, "sfs")
	if err := sfs.StackOn(disk); err != nil {
		t.Fatal(err)
	}
	comp := compfs.New(spring.NewDomain(node, "comp"), "comp", compfs.ModeCoherent)
	if err := comp.StackOn(sfs); err != nil {
		t.Fatal(err)
	}
	var stack fsys.StackableFS = comp
	p := NewProcess(stack, naming.Root)

	fd, err := p.Open("/doc", O_RDWR|O_CREAT)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("posix over compfs "), 500)
	if _, err := p.Write(fd, payload); err != nil {
		t.Fatal(err)
	}
	if err := p.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Lseek(fd, 0, SEEK_SET); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	total := 0
	for total < len(got) {
		n, err := p.Read(fd, got[total:])
		total += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got[:total], payload) {
		t.Error("round trip through compression stack failed")
	}
}

// TestPropertySequentialIOMatchesModel drives random read/write/seek
// sequences against a byte-slice model.
func TestPropertySequentialIOMatchesModel(t *testing.T) {
	p := newProc(t)
	fd, err := p.Open("/model", O_RDWR|O_CREAT)
	if err != nil {
		t.Fatal(err)
	}
	model := []byte{}
	var off int64
	prop := func(op uint8, lenRaw uint8, seed byte) bool {
		n := int(lenRaw)%128 + 1
		switch op % 3 {
		case 0: // write
			data := bytes.Repeat([]byte{seed}, n)
			w, err := p.Write(fd, data)
			if err != nil || w != n {
				return false
			}
			if need := int(off) + n; need > len(model) {
				model = append(model, make([]byte, need-len(model))...)
			}
			copy(model[off:], data)
			off += int64(n)
		case 1: // read
			buf := make([]byte, n)
			r, err := p.Read(fd, buf)
			if err == io.EOF {
				if int(off) < len(model) {
					return false
				}
				return true
			}
			if err != nil {
				return false
			}
			if !bytes.Equal(buf[:r], model[off:off+int64(r)]) {
				return false
			}
			off += int64(r)
		case 2: // seek somewhere inside
			if len(model) == 0 {
				return true
			}
			target := int64(seed) % int64(len(model))
			got, err := p.Lseek(fd, target, SEEK_SET)
			if err != nil || got != target {
				return false
			}
			off = target
		}
		cur, err := p.Lseek(fd, 0, SEEK_CUR)
		return err == nil && cur == off
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCleanPathEdges(t *testing.T) {
	p := newProc(t)
	tests := []struct {
		cwd, in, want string
	}{
		{"", "/", ""},
		{"", "/a/b", "a/b"},
		{"", "a/./b", "a/b"},
		{"", "a/../b", "b"},
		{"", "../..", ""},
		{"", "/a//b///c", "a/b/c"},
		{"a/b", "c", "a/b/c"},
		{"a/b", "./c", "a/b/c"},
		{"a/b", "../c", "a/c"},
		{"a/b", "../../../c", "c"},
		{"a/b", "/c", "c"},
		{"a", "..", ""},
	}
	for _, tt := range tests {
		p.mu.Lock()
		p.cwd = tt.cwd
		p.mu.Unlock()
		if got := p.cleanPath(tt.in); got != tt.want {
			t.Errorf("cleanPath(cwd=%q, %q) = %q, want %q", tt.cwd, tt.in, got, tt.want)
		}
	}
}

// TestCleanPathFastAgreesWithSlow: the allocation-free path for an already
// clean name either declines or answers exactly what splitting and rejoining
// would, and a clean name costs no allocation.
func TestCleanPathFastAgreesWithSlow(t *testing.T) {
	took := 0
	for _, cwd := range []string{"", "a", "a/b"} {
		for _, in := range []string{
			"/", "/a/b", "a/./b", "a/../b", "../..", "/a//b///c", "c", "./c", "../c", "../../../c", "/c", "..",
			"", "//", "a/", "/a/", "./x", ".", "/.", "/..", "a/b/..", "x", "dir/f", "/dir/f", "small-0001-2", ".hidden", "a/...", "a/.b/c..",
		} {
			want := cleanSlow(cwd, in)
			got, ok := cleanFast(cwd, in)
			if ok && got != want {
				t.Errorf("cleanFast(cwd=%q, %q) = %q, the slow path says %q", cwd, in, got, want)
			}
			if ok {
				took++
			}
		}
	}
	if took < 8 {
		t.Errorf("the fast path took only %d of the cases", took)
	}
	p := newProc(t)
	for _, in := range []string{"small-0001-2", "dir/f", "/dir/sub/f"} {
		if _, ok := cleanFast("", in); !ok {
			t.Errorf("cleanFast declined the clean name %q", in)
		}
		if n := testing.AllocsPerRun(100, func() { _ = p.cleanPath(in) }); n != 0 {
			t.Errorf("cleanPath(%q) allocates %v times", in, n)
		}
	}
}

func TestMmap(t *testing.T) {
	sfs, vmm := newSFS(t)
	p := NewProcessVM(sfs, naming.Root, vmm)

	fd, err := p.Open("/mapped", O_RDWR|O_CREAT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(fd, []byte("written via write(2)")); err != nil {
		t.Fatal(err)
	}
	m, err := p.Mmap(fd, 0)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	// Reads through the mapping see write(2) data: one cache.
	got := make([]byte, 20)
	if _, err := m.Read(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "written via write(2)" {
		t.Errorf("mapped read = %q", got)
	}
	// Writes through the mapping are seen by read(2).
	if _, err := m.Write([]byte("MAPPED"), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if _, err := p.Pread(fd, buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "MAPPED" {
		t.Errorf("read(2) after mapped write = %q", buf)
	}
	if err := m.Unmap(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(got, 0); err == nil {
		t.Error("read through unmapped region succeeded")
	}
	// A read-only descriptor yields a read-only mapping.
	rd, err := p.Open("/mapped", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := p.Mmap(rd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mr.Write([]byte("x"), 0); err == nil {
		t.Error("write through read-only mapping succeeded")
	}
	// Mmap without an address space fails cleanly.
	plain := NewProcess(sfs, naming.Root)
	pfd, err := plain.Open("/mapped", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Mmap(pfd, 0); !errors.Is(err, EINVAL) {
		t.Errorf("mmap without VM = %v, want EINVAL", err)
	}
}

// TestMmapPastTruncationReadsZeros pins a known deviation (docs/POSIX.md,
// "Memory mapping"): after ftruncate shrinks a mapped file, loads through
// the live mapping past the new end return zeros with no error, where
// POSIX raises SIGBUS for the pages wholly beyond it.
func TestMmapPastTruncationReadsZeros(t *testing.T) {
	sfs, vmm := newSFS(t)
	p := NewProcessVM(sfs, naming.Root, vmm)
	fd, err := p.Open("/shrunk", O_RDWR|O_CREAT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(fd, bytes.Repeat([]byte{'x'}, 3*vm.PageSize)); err != nil {
		t.Fatal(err)
	}
	m, err := p.Mmap(fd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ftruncate(fd, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3*vm.PageSize)
	if _, err := m.Read(got, 0); err != nil {
		t.Fatalf("load past the new end = %v, want zeros and no error", err)
	}
	if !bytes.Equal(got[:100], bytes.Repeat([]byte{'x'}, 100)) {
		t.Errorf("the kept 100 bytes read %q", got[:8])
	}
	if i := bytes.IndexFunc(got[100:], func(r rune) bool { return r != 0 }); i >= 0 {
		t.Errorf("byte %d past the new end reads %#x, want 0", 100+i, got[100+i])
	}
}
