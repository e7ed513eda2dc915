package compfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"springfs/internal/blockdev"
	"springfs/internal/coherency"
	"springfs/internal/disklayer"
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// rig is COMPFS stacked on SFS (coherency on disk), the Figure 5/6 setup.
type rig struct {
	node *spring.Node
	dev  *blockdev.MemDevice
	sfs  *coherency.CohFS
	comp *CompFS
	vmm  *vm.VMM
}

func newRig(t *testing.T, mode Mode) *rig {
	t.Helper()
	node := spring.NewNode("n")
	t.Cleanup(node.Stop)
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	dev := blockdev.NewMem(4096, blockdev.ProfileNone)
	if err := disklayer.Mkfs(dev, disklayer.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	diskDomain := spring.NewDomain(node, "disk")
	disk, err := disklayer.Mount(dev, diskDomain, vmm, "disk0a")
	if err != nil {
		t.Fatal(err)
	}
	sfs := coherency.New(diskDomain, vmm, "sfs")
	if err := sfs.StackOn(disk); err != nil {
		t.Fatal(err)
	}
	comp := New(spring.NewDomain(node, "compfs"), "compfs", mode)
	if err := comp.StackOn(sfs); err != nil {
		t.Fatal(err)
	}
	return &rig{node: node, dev: dev, sfs: sfs, comp: comp, vmm: vmm}
}

// compressible returns n bytes that DEFLATE shrinks well.
func compressible(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte("abcabcabd"[i%9])
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	r := newRig(t, ModeCoherent)
	f, err := r.comp.Create("doc", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	msg := compressible(3 * BlockSize)
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("round trip mismatch")
	}
	attrs, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if attrs.Length != int64(len(msg)) {
		t.Errorf("length = %d, want %d", attrs.Length, len(msg))
	}
}

func TestCompressionSavesSpace(t *testing.T) {
	r := newRig(t, ModeCoherent)
	f, err := r.comp.Create("text", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(compressible(16*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	// The underlying file holds under half the uncompressed content.
	lowerLen, err := f.(*compFile).Lower().GetLength()
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(lowerLen) / (16 * BlockSize); ratio >= 0.5 {
		t.Errorf("compression ratio = %.2f (lower length %d), want < 0.5 for repetitive data", ratio, lowerLen)
	}
}

func TestIncompressibleStoredRaw(t *testing.T) {
	data := make([]byte, BlockSize)
	x := uint32(123456789)
	for i := range data {
		x = x*1664525 + 1013904223
		data[i] = byte(x >> 24)
	}
	comp, err := compressBlock(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) != BlockSize {
		t.Errorf("pseudo-random block compressed to %d, want raw %d", len(comp), BlockSize)
	}
	back, err := decompressBlock(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Error("raw round trip mismatch")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	r := newRig(t, ModeCoherent)
	f, err := r.comp.Create("persist", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	msg := compressible(2*BlockSize + 100)
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// A second COMPFS instance over the same lower file system must read
	// the image back.
	comp2 := New(spring.NewDomain(r.node, "compfs2"), "compfs2", ModeCoherent)
	if err := comp2.StackOn(r.sfs); err != nil {
		t.Fatal(err)
	}
	f2, err := comp2.Open("persist", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := f2.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("reopen mismatch")
	}
}

func TestHolesReadZero(t *testing.T) {
	r := newRig(t, ModeCoherent)
	f, err := r.comp.Create("sparse", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{1}, 5*BlockSize); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	if _, err := f.ReadAt(got, 2*BlockSize); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("hole byte %d = %d", i, b)
		}
	}
}

func TestFigure6CoherentWithUnderlyingFile(t *testing.T) {
	// Figure 6: COMPFS acts as a cache manager for file_SFS; mappings of
	// file_COMP and file_SFS are coherent. A direct rewrite of the
	// underlying compressed image is observed by COMPFS clients.
	r := newRig(t, ModeCoherent)
	f, err := r.comp.Create("shared", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	oldMsg := compressible(BlockSize)
	if _, err := f.WriteAt(oldMsg, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Read through COMPFS so its table and data paths are warm.
	buf := make([]byte, 32)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}

	// Build a replacement image elsewhere, then splat it over file_SFS
	// through the underlying file interface (a "client opening file_SFS
	// as usual, reading and writing its compressed data").
	newMsg := []byte("REPLACED-CONTENT-THROUGH-SFS")
	image := buildImage(t, r.node, r.sfs, newMsg)
	lower := f.(*compFile).Lower()
	if _, err := lower.WriteAt(image, 0); err != nil {
		t.Fatal(err)
	}
	if err := lower.SetLength(int64(len(image))); err != nil {
		t.Fatal(err)
	}

	if r.comp.Invalidations.Value() == 0 {
		t.Fatal("no invalidations reached COMPFS; the C3-P3 connection is not working")
	}
	got := make([]byte, len(newMsg))
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newMsg) {
		t.Errorf("coherent read after direct rewrite = %q, want %q", got, newMsg)
	}
}

func TestFigure5NonCoherentStaleness(t *testing.T) {
	// Figure 5: without the cache-manager connection, direct updates to
	// file_SFS are NOT reflected through file_COMP — the two views are
	// incoherent. This test demonstrates the staleness the paper calls
	// out ("the setup shown in Figure 5 will not keep accesses to both
	// files coherent").
	r := newRig(t, ModeNonCoherent)
	f, err := r.comp.Create("stale", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	oldMsg := compressible(2*BlockSize + 17) // longer than the replacement
	if _, err := f.WriteAt(oldMsg, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}

	newMsg := []byte("NEW-CONTENT-NEW-CONTENT-NEW!")
	image := buildImage(t, r.node, r.sfs, newMsg)
	lower := f.(*compFile).Lower()
	if _, err := lower.WriteAt(image, 0); err != nil {
		t.Fatal(err)
	}
	if err := lower.SetLength(int64(len(image))); err != nil {
		t.Fatal(err)
	}

	if r.comp.Invalidations.Value() != 0 {
		t.Error("non-coherent COMPFS received invalidations")
	}
	// The stale cached table still reports the OLD uncompressed length —
	// COMPFS never observed the replacement. (In coherent mode this
	// exact sequence yields the new length; see Figure 6 test.)
	l, err := f.GetLength()
	if err != nil {
		t.Fatal(err)
	}
	if l == int64(len(newMsg)) {
		t.Error("non-coherent COMPFS observed the new length; expected staleness")
	}
	if l != int64(len(oldMsg)) {
		t.Errorf("stale length = %d, want the old %d", l, len(oldMsg))
	}
}

// buildImage constructs a valid COMPFS underlying image holding content,
// using a scratch file on the same lower file system.
func buildImage(t *testing.T, node *spring.Node, sfs *coherency.CohFS, content []byte) []byte {
	t.Helper()
	scratch := New(spring.NewDomain(node, "scratch-compfs"), "scratch", ModeNonCoherent)
	if err := scratch.StackOn(sfs); err != nil {
		t.Fatal(err)
	}
	f, err := scratch.Create("scratch-image", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	lower := f.(*compFile).Lower()
	length, err := lower.GetLength()
	if err != nil {
		t.Fatal(err)
	}
	image := make([]byte, length)
	if _, err := lower.ReadAt(image, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if err := sfs.Remove("scratch-image", naming.Root); err != nil {
		t.Fatal(err)
	}
	return image
}

func TestMappedAccessThroughPager(t *testing.T) {
	// file_COMP is a memory object: map it and fault pages through the
	// COMPFS pager (uncompress on page-in, compress on page-out).
	r := newRig(t, ModeCoherent)
	f, err := r.comp.Create("mapped", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	msg := compressible(2 * BlockSize)
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatal(err)
	}
	m, err := r.vmm.Map(f, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if _, err := m.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg[:64]) {
		t.Error("mapped read mismatch")
	}
	// Write through the mapping, sync it out, and read through the file
	// interface.
	if _, err := m.WriteAt([]byte("VIA-MAPPING"), BlockSize); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, 11)
	if _, err := f.ReadAt(got2, BlockSize); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(got2) != "VIA-MAPPING" {
		t.Errorf("file read after mapped write = %q", got2)
	}
}

func TestEOFSemantics(t *testing.T) {
	r := newRig(t, ModeCoherent)
	f, err := r.comp.Create("eof", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("12345"), 0); err != nil {
		t.Fatal(err)
	}
	if n, err := f.ReadAt(make([]byte, 3), 5); n != 0 || err != io.EOF {
		t.Errorf("read at EOF = %d, %v", n, err)
	}
	buf := make([]byte, 10)
	if n, err := f.ReadAt(buf, 3); n != 2 || err != io.EOF {
		t.Errorf("read crossing EOF = %d, %v", n, err)
	}
}

func TestTruncate(t *testing.T) {
	r := newRig(t, ModeCoherent)
	f, err := r.comp.Create("trunc", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(compressible(3*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.SetLength(100); err != nil {
		t.Fatal(err)
	}
	if l, _ := f.GetLength(); l != 100 {
		t.Errorf("length = %d", l)
	}
	if _, err := f.ReadAt(make([]byte, 10), 200); err != io.EOF {
		t.Errorf("read past truncation = %v, want EOF", err)
	}
}

func TestOpenNonImageFails(t *testing.T) {
	r := newRig(t, ModeCoherent)
	// Create a plain file below and try to open it through COMPFS.
	lower, err := r.sfs.Create("plain", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lower.WriteAt([]byte("not a compfs image, definitely"), 0); err != nil {
		t.Fatal(err)
	}
	f, err := r.comp.Open("plain", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, 4), 0); err != ErrBadFormat {
		t.Errorf("read of non-image error = %v, want ErrBadFormat", err)
	}
}

func TestPropertyRoundTripMatchesModel(t *testing.T) {
	r := newRig(t, ModeCoherent)
	f, err := r.comp.Create("model", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	const space = 6 * BlockSize
	model := make([]byte, space)
	var length int64
	prop := func(offRaw uint32, lenRaw uint16, seed byte) bool {
		off := int64(offRaw) % (space - 2048)
		n := int64(lenRaw)%2048 + 1
		data := make([]byte, n)
		for i := range data {
			data[i] = seed ^ byte(i%7)
		}
		if _, err := f.WriteAt(data, off); err != nil {
			return false
		}
		copy(model[off:], data)
		if off+n > length {
			length = off + n
		}
		got := make([]byte, n)
		if _, err := f.ReadAt(got, off); err != nil && err != io.EOF {
			return false
		}
		if l, _ := f.GetLength(); l != length {
			return false
		}
		return bytes.Equal(got, model[off:off+n])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBlockTableEncodeDecode(t *testing.T) {
	tbl := newBlockTable()
	tbl.uncompLen = 124*BlockSize + 5
	tbl.blocks[0] = fsys.Extent{Off: 4096, Len: 100}
	tbl.blocks[7] = fsys.Extent{Off: 4196, Len: 4096}
	tbl.blocks[123] = fsys.Extent{Off: 9000, Len: 1}
	decoded, live, err := decodeBlockTable(tbl.encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.blocks) != 3 || len(live) != 3 || decoded.uncompLen != tbl.uncompLen {
		t.Fatalf("decoded %d entries, %d extents, length %d", len(decoded.blocks), len(live), decoded.uncompLen)
	}
	for bn, e := range tbl.blocks {
		if decoded.blocks[bn] != e {
			t.Errorf("block %d: %+v != %+v", bn, decoded.blocks[bn], e)
		}
	}
	// Corruption.
	if _, _, err := decodeBlockTable([]byte{1, 2}); err == nil {
		t.Error("short table decoded")
	}
	if _, _, err := decodeBlockTable([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5}); err == nil {
		t.Error("truncated table decoded")
	}
}

func TestCreatorModes(t *testing.T) {
	node := spring.NewNode("n")
	defer node.Stop()
	creator := NewCreator(spring.NewDomain(node, "c"))
	fs, err := creator.CreateFS(map[string]string{"mode": "noncoherent", "name": "x"})
	if err != nil {
		t.Fatal(err)
	}
	if fs.(*CompFS).Mode() != ModeNonCoherent {
		t.Error("mode not applied")
	}
	if _, err := creator.CreateFS(map[string]string{"mode": "bogus"}); err == nil {
		t.Error("bogus mode accepted")
	}
	var c fsys.Creator = creator
	_ = c
}

// TestOversizedClenIsBadImage: a table entry whose stored length is no
// compressed-block length (here 0xFFFFFFFF, which decoded as -1 and
// panicked in the read path) makes the image bad; it is not read.
func TestOversizedClenIsBadImage(t *testing.T) {
	r := newRig(t, ModeCoherent)
	f, err := r.comp.Create("doc", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, BlockSize) // incompressible: stored raw, clen 4096
	x := uint32(99)
	for i := range raw {
		x = x*1664525 + 1013904223
		raw[i] = byte(x >> 24)
	}
	if _, err := f.WriteAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Find block 0's table entry — (ublock 0, offset, clen 4096) — and
	// set its clen to 0xFFFFFFFF.
	lower := f.(*compFile).Lower()
	length, err := lower.GetLength()
	if err != nil {
		t.Fatal(err)
	}
	image := make([]byte, length)
	if _, err := lower.ReadAt(image, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	at := -1
	for i := len(image) - 20; i >= 0 && at < 0; i-- {
		rec := image[i : i+20]
		off := int64(binary.BigEndian.Uint64(rec[8:]))
		if bytes.Equal(rec[:8], make([]byte, 8)) && binary.BigEndian.Uint32(rec[16:]) == BlockSize && off >= BlockSize && off < length {
			at = i + 16
		}
	}
	if at < 0 {
		t.Fatal("block 0's table entry not found in the image")
	}
	if _, err := lower.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, int64(at)); err != nil {
		t.Fatal(err)
	}
	comp2 := New(spring.NewDomain(r.node, "compfs2"), "compfs2", ModeCoherent)
	if err := comp2.StackOn(r.sfs); err != nil {
		t.Fatal(err)
	}
	f2, err := comp2.Open("doc", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.ReadAt(make([]byte, 10), 0); !errors.Is(err, ErrBadFormat) {
		t.Errorf("read through a table entry of clen 0xFFFFFFFF = %v, want ErrBadFormat", err)
	}
}
