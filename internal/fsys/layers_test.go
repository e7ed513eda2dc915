package fsys_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"springfs/internal/blockdev"
	"springfs/internal/coherency"
	"springfs/internal/compfs"
	"springfs/internal/disklayer"
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/snapfs"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// The image layers — COMPFS and SNAPFS, on its main line and in a clone —
// driven through their file interface over SFS, checked against the image
// format they share.

// imageStack is SFS on a fresh RAM disk, with a domain for the image
// layers mounted on it.
type imageStack struct {
	domain *spring.Domain
	sfs    *coherency.CohFS
}

func newImageStack(t testing.TB, blocks int64) *imageStack {
	t.Helper()
	node := spring.NewNode("image")
	t.Cleanup(node.Stop)
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	dev := blockdev.NewMem(blocks, blockdev.ProfileNone)
	if err := disklayer.Mkfs(dev, disklayer.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	disk, err := disklayer.Mount(dev, spring.NewDomain(node, "disk"), vmm, "disk")
	if err != nil {
		t.Fatal(err)
	}
	sfs := coherency.New(spring.NewDomain(node, "sfs"), vmm, "sfs")
	if err := sfs.StackOn(disk); err != nil {
		t.Fatal(err)
	}
	return &imageStack{domain: spring.NewDomain(node, "layers"), sfs: sfs}
}

// imageLayer is one way of keeping files as images.
type imageLayer struct {
	name string
	bad  error
	// mount stacks a fresh instance of the layer on st.sfs: one that has
	// read nothing of what an earlier instance left below.
	mount func(t testing.TB, st *imageStack) fsys.FS
	// live counts the bytes a committed table references.
	live func(table []byte) int64
}

var imageLayers = []imageLayer{
	{
		name: "compfs", bad: compfs.ErrBadFormat,
		mount: func(t testing.TB, st *imageStack) fsys.FS {
			c := compfs.New(st.domain, "comp", compfs.ModeCoherent)
			if err := c.StackOn(st.sfs); err != nil {
				t.Fatal(err)
			}
			return c
		},
		live: func(table []byte) (n int64) {
			for i := range int(binary.BigEndian.Uint32(table[8:])) {
				n += int64(binary.BigEndian.Uint32(table[12+20*i+16:]))
			}
			return n
		},
	},
	{name: "snapfs-main", bad: snapfs.ErrBadImage, mount: mountSnap(false), live: snapLive},
	{name: "snapfs-clone", bad: snapfs.ErrBadImage, mount: mountSnap(true), live: snapLive},
}

func mountSnap(clone bool) func(t testing.TB, st *imageStack) fsys.FS {
	return func(t testing.TB, st *imageStack) fsys.FS {
		s := snapfs.New(st.domain, "snap")
		if err := s.StackOn(st.sfs); err != nil {
			t.Fatal(err)
		}
		if !clone {
			return s
		}
		if v, err := s.CloneView("work"); err == nil {
			return v
		}
		if err := s.Snapshot("base"); err != nil {
			t.Fatal(err)
		}
		v, err := s.Clone("base", "work")
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

func snapLive(table []byte) (n int64) {
	for i := range int(binary.BigEndian.Uint32(table)) {
		if int64(binary.BigEndian.Uint64(table[4+24*i+16:])) != -1 {
			n += snapfs.BlockSize
		}
	}
	return n
}

// lowerOf is the file holding f's image.
func lowerOf(f fsys.File) fsys.File { return f.(interface{ Lower() fsys.File }).Lower() }

// readAll returns the whole content of f.
func readAll(t testing.TB, f fsys.File) []byte {
	t.Helper()
	n, err := f.GetLength()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, n)
	if _, err := f.ReadAt(out, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	return out
}

// imageSizes returns the length of the image lower holds and its live
// bytes: the header page, the committed table and the extents it names.
func imageSizes(t testing.TB, layer imageLayer, lower fsys.File) (length, live int64) {
	t.Helper()
	raw := readAll(t, lower)
	off, n := binary.BigEndian.Uint64(raw[12:]), binary.BigEndian.Uint64(raw[20:])
	table := raw[off : off+n]
	return int64(len(raw)), fsys.ImageHeaderSize + int64(len(table)) + layer.live(table)
}

// sizeScript runs rounds of the layer-sweep benchmark's script on one file
// of layer: write size bytes (256 KiB in the benchmark) in 64 KiB calls and
// fsync; 64 random 4 KiB block writes with an fsync every 16; shrink to
// mid-block and re-extend. check runs after every fsync, and the content
// must match a shadow copy after every round.
func sizeScript(t testing.TB, layer imageLayer, st *imageStack, size, rounds int, check func(round int, lower fsys.File)) {
	t.Helper()
	const bs = fsys.BlockSize
	fs := layer.mount(t, st)
	f, err := fs.Create("big", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	shadow := make([]byte, size)
	// Each block holds a random prefix of its own length, then zeros, so
	// compressed extents come in every size.
	fillBlock := func(blk []byte) {
		clear(blk)
		rng.Read(blk[:16+rng.Intn(bs-16)])
	}
	for b := 0; b < size; b += bs {
		fillBlock(shadow[b : b+bs])
	}
	write := func(round int, p []byte, off int64) {
		t.Helper()
		if _, err := f.WriteAt(p, off); err != nil {
			t.Fatalf("%s round %d: write at %d: %v", layer.name, round, off, err)
		}
	}
	sync := func(round int) {
		t.Helper()
		if err := f.Sync(); err != nil {
			t.Fatalf("%s round %d: fsync: %v", layer.name, round, err)
		}
		check(round, lowerOf(f))
	}
	for round := 1; round <= rounds; round++ {
		for b := 0; b < size; b += bs {
			rng.Read(shadow[b : b+16])
		}
		for off := 0; off < size; off += 64 << 10 {
			write(round, shadow[off:min(off+64<<10, size)], int64(off))
		}
		sync(round)
		for i := 1; i <= 64; i++ {
			b := rng.Intn(size/bs) * bs
			fillBlock(shadow[b : b+bs])
			write(round, shadow[b:b+bs], int64(b))
			if i%16 == 0 {
				sync(round)
			}
		}
		cut := int64(size/2 + bs/3)
		if err := f.SetLength(cut); err != nil {
			t.Fatalf("%s round %d: shrink: %v", layer.name, round, err)
		}
		if err := f.SetLength(int64(size)); err != nil {
			t.Fatalf("%s round %d: re-extend: %v", layer.name, round, err)
		}
		clear(shadow[cut:])
		if got := readAll(t, f); !bytes.Equal(got, shadow) {
			t.Fatalf("%s round %d: content differs from the shadow copy", layer.name, round)
		}
	}
}

// TestImageSizeStaysBounded: rewrites and shrinks give their space back.
// Over 200 rounds of the layer-sweep script on a 4 096-block SFS, no round
// runs out of space, and from round 2 on every fsync leaves the lower file
// at most twice the image's live bytes.
func TestImageSizeStaysBounded(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 120
	}
	for _, layer := range imageLayers {
		t.Run(layer.name, func(t *testing.T) {
			var worst float64
			sizeScript(t, layer, newImageStack(t, 4096), 256<<10, rounds, func(round int, lower fsys.File) {
				length, live := imageSizes(t, layer, lower)
				if round < 2 {
					return
				}
				worst = max(worst, float64(length)/float64(live))
				if length > 2*live {
					t.Fatalf("round %d: lower file is %d bytes for %d live bytes", round, length, live)
				}
			})
			t.Logf("%d rounds: lower file at most %.2f× the image's live bytes", rounds, worst)
		})
	}
}

// corruptHeader writes p at off into the header of a committed image of
// layer, then reads the file through a fresh instance of the layer.
func corruptHeader(t *testing.T, layer imageLayer, off int64, p []byte) error {
	t.Helper()
	st := newImageStack(t, 4096)
	f, err := layer.mount(t, st).Create("doc", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte("image"), 1000), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := lowerOf(f).WriteAt(p, off); err != nil {
		t.Fatal(err)
	}
	f, err = layer.mount(t, st).Open("doc", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.ReadAt(make([]byte, 10), 0)
	return err
}

// TestHugeTableLengthIsBadImage: a table length from disk far past the
// lower file is a bad image, not an allocation of that size (which
// panicked).
func TestHugeTableLengthIsBadImage(t *testing.T) {
	for _, layer := range imageLayers {
		if err := corruptHeader(t, layer, 20, binary.BigEndian.AppendUint64(nil, 1<<62)); !errors.Is(err, layer.bad) {
			t.Errorf("%s: read of an image with a 2^62-byte table = %v, want %v", layer.name, err, layer.bad)
		}
	}
}

// TestOldImageVersionIsRefused: an image of format version 1 is refused
// with the layer's bad-image error.
func TestOldImageVersionIsRefused(t *testing.T) {
	for _, layer := range imageLayers {
		if err := corruptHeader(t, layer, 8, []byte{0, 0, 0, 1}); !errors.Is(err, layer.bad) {
			t.Errorf("%s: read of a version-1 image = %v, want %v", layer.name, err, layer.bad)
		}
	}
}

// FuzzImage: whatever bytes sit in an image file, COMPFS and SNAPFS load
// it as an image or refuse it with their bad-image error, never panic
// reading it, and an image they load takes a write and a commit and loads
// again with the write in it — so no loaded extent is ever handed out
// twice. The seeds are the images two rounds of the size test's script
// leave at every fsync, on a 16 KiB file so that every run stays quick.
func FuzzImage(f *testing.F) {
	for _, layer := range imageLayers {
		sizeScript(f, layer, newImageStack(f, 4096), 16<<10, 2, func(round int, lower fsys.File) {
			f.Add(readAll(f, lower))
		})
	}
	f.Add([]byte("not an image"))
	st := newImageStack(f, 4096)
	// One file per layer, whose image each input replaces.
	for _, layer := range imageLayers[:2] {
		if _, err := layer.mount(f, st).Create(layer.name, naming.Root); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<20 {
			return
		}
		for _, layer := range imageLayers[:2] {
			loadImage(t, st, layer, raw)
		}
	})
}

// loadImage puts raw in the image of layer's file on st, loads it through a
// fresh instance and, if it loads, writes a block, commits and reloads.
func loadImage(t *testing.T, st *imageStack, layer imageLayer, raw []byte) {
	name := map[string]string{"compfs": "compfs", "snapfs-main": ".sfd-0000000000000001"}[layer.name]
	lower, err := st.sfs.Open(name, naming.Root)
	if err == nil {
		err = lower.SetLength(0)
	}
	if err == nil {
		_, err = lower.WriteAt(raw, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	file, err := layer.mount(t, st).Open(layer.name, naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	length, err := file.GetLength()
	if errors.Is(err, layer.bad) {
		return
	}
	if err != nil {
		t.Fatalf("%s: load: %v", layer.name, err)
	}
	// Reads may fail (a corrupt extent), but not panic.
	_, _ = file.ReadAt(make([]byte, 64<<10), 0)
	_, _ = file.ReadAt(make([]byte, 64<<10), max(length-32<<10, 0))
	block := bytes.Repeat([]byte("fuzz"), fsys.BlockSize/4)
	if _, err := file.WriteAt(block, 0); err != nil {
		t.Fatalf("%s: write: %v", layer.name, err)
	}
	if err := file.Sync(); err != nil {
		t.Fatalf("%s: commit: %v", layer.name, err)
	}
	again, err := layer.mount(t, st).Open(layer.name, naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(block))
	if _, err := again.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("%s: reload after a commit: %v", layer.name, err)
	}
	if !bytes.Equal(got, block) {
		t.Fatalf("%s: the committed write did not survive a reload", layer.name)
	}
}
