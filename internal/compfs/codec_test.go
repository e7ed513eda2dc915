package compfs

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
)

// raceEnabled is set under -race, where sync.Pool drops a random quarter
// of what is put back, so a pooled codec allocates by design.
var raceEnabled bool

// blockKinds are the blocks the codec meets: all zeros, text, random
// bytes (stored raw) and half text, half random.
func blockKinds() map[string][]byte {
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, BlockSize)
	rng.Read(random)
	mixed := compressible(BlockSize)
	rng.Read(mixed[BlockSize/2:])
	return map[string][]byte{
		"zeros":  make([]byte, BlockSize),
		"text":   compressible(BlockSize),
		"random": random,
		"mixed":  mixed,
	}
}

// freshCompress is compressBlock with a writer of its own: the bytes every
// COMPFS image holds.
func freshCompress(t testing.TB, data []byte) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err == nil {
		_, err = w.Write(data)
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= BlockSize {
		return data
	}
	return buf.Bytes()
}

// TestCompressBlockMatchesFreshWriter pins the stored bytes: a pooled
// writer, whatever it compressed before, writes what a fresh one does, so
// images written before the pool read back unchanged.
func TestCompressBlockMatchesFreshWriter(t *testing.T) {
	kinds := blockKinds()
	names := []string{"zeros", "text", "random", "mixed"}
	want := map[string][]byte{}
	for _, name := range names {
		want[name] = freshCompress(t, kinds[name])
		if raw := len(want[name]) == BlockSize; raw != (name == "random") {
			t.Fatalf("%s: stored length %d", name, len(want[name]))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		for _, i := range rng.Perm(len(names)) {
			if got := compressBlock(kinds[names[i]]); !bytes.Equal(got, want[names[i]]) {
				t.Fatalf("round %d, %s: pooled writer stored %d bytes unlike a fresh writer's %d", round, names[i], len(got), len(want[names[i]]))
			}
		}
	}
}

// zeroBomb is a 4084-byte DEFLATE stream of 4 MiB of zeros: an extent
// length COMPFS accepts, inflating a thousandfold.
func zeroBomb(t testing.TB) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestCompression)
	if err == nil {
		_, err = w.Write(make([]byte, 4<<20))
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= BlockSize {
		t.Fatalf("bomb is %d bytes, no compressed extent", buf.Len())
	}
	return buf.Bytes()
}

// allocated returns the bytes fn allocates, the least of three runs so
// that no other goroutine's allocation counts.
func allocated(fn func()) uint64 {
	var least uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
			least = n
		}
	}
	return least
}

// TestCorruptExtentInflateIsBounded: a corrupt extent is refused after
// inflating one byte past the block, not after all it would inflate to.
func TestCorruptExtentInflateIsBounded(t *testing.T) {
	bomb := zeroBomb(t)
	dst := make([]byte, BlockSize)
	n := allocated(func() {
		if err := decompressBlock(dst, bomb); err == nil {
			t.Error("a stream of 4 MiB decoded as one block")
		}
	})
	if n >= 64<<10 {
		t.Errorf("refusing a 4 MiB stream allocated %d bytes, want < 64 KiB", n)
	}
}

// TestBlockCodecAllocates guards the pools: compressing and inflating a
// block allocates about the compressed bytes, not a fresh codec each.
func TestBlockCodecAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const calls = 1000
	data, dst := compressible(BlockSize), make([]byte, BlockSize)
	per := allocated(func() {
		for i := 0; i < calls; i++ {
			if err := decompressBlock(dst, compressBlock(data)); err != nil {
				t.Fatal(err)
			}
		}
	}) / calls
	if per >= 16<<10 {
		t.Errorf("one compress and one inflate allocate %d bytes, want < 16 KiB", per)
	}
	if !bytes.Equal(dst, data) {
		t.Error("round trip mismatch")
	}
}

// FuzzBlockCodec: any extent decodes to exactly the block a fresh reader
// inflates, or is refused; it leaves the pooled reader fit for the next
// block; and any block survives a round trip.
func FuzzBlockCodec(f *testing.F) {
	for _, b := range blockKinds() {
		comp := compressBlock(b)
		f.Add(comp)
		f.Add(comp[:len(comp)/2])
	}
	f.Add(zeroBomb(f))
	f.Add([]byte("not a deflate stream"))
	good := compressible(BlockSize)
	goodComp := compressBlock(good)
	f.Fuzz(func(t *testing.T, raw []byte) {
		dst := make([]byte, BlockSize)
		err := decompressBlock(dst, raw)
		want, werr := raw, error(nil)
		if len(raw) != BlockSize {
			want, werr = io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(raw)), BlockSize+1))
		}
		if ok := werr == nil && len(want) == BlockSize; ok != (err == nil) {
			t.Fatalf("decode error %v; a fresh reader gave %d bytes, error %v", err, len(want), werr)
		}
		if err == nil && !bytes.Equal(dst, want) {
			t.Fatal("decoded block differs from a fresh reader's")
		}
		if err := decompressBlock(dst, goodComp); err != nil || !bytes.Equal(dst, good) {
			t.Fatalf("good block after the input: %v", err)
		}
		block := make([]byte, BlockSize)
		copy(block, raw)
		if err := decompressBlock(dst, compressBlock(block)); err != nil || !bytes.Equal(dst, block) {
			t.Fatalf("round trip: %v", err)
		}
	})
}

// TestConcurrentFilesShareCodec: goroutines write, sync and read back
// files of two instances, and disjoint regions of one shared file, against
// a byte model; every file shares the codec pools.
func TestConcurrentFilesShareCodec(t *testing.T) {
	r := newRig(t, ModeCoherent)
	other := New(spring.NewDomain(r.node, "compfs2"), "compfs2", ModeNonCoherent)
	if err := other.StackOn(r.sfs); err != nil {
		t.Fatal(err)
	}
	const workers, region = 4, 4 * BlockSize
	shared, err := r.comp.Create("shared", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	sharedModel := make([]byte, workers*region)
	if _, err := shared.WriteAt(sharedModel, 0); err != nil {
		t.Fatal(err)
	}
	kinds := blockKinds()
	names := []string{"zeros", "text", "random", "mixed"}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			errs <- func() error {
				own, err := []*CompFS{r.comp, other}[w%2].Create(fmt.Sprintf("own%d", w), naming.Root)
				if err != nil {
					return err
				}
				ownModel, base := make([]byte, region), int64(w*region)
				if _, err := own.WriteAt(ownModel, 0); err != nil {
					return err
				}
				files := []struct {
					f     fsys.File
					at    int64
					model []byte
				}{{own, 0, ownModel}, {shared, base, sharedModel[base : base+region]}}
				rng := rand.New(rand.NewSource(int64(w)))
				got := make([]byte, region)
				for i := 0; i < 40; i++ {
					n := 1 + rng.Intn(BlockSize)
					off := rng.Intn(region - n + 1)
					data := kinds[names[rng.Intn(len(names))]][rng.Intn(BlockSize-n+1):][:n]
					for _, c := range files {
						if _, err := c.f.WriteAt(data, c.at+int64(off)); err != nil {
							return err
						}
						copy(c.model[off:], data)
						if i%5 == 4 {
							if err := c.f.Sync(); err != nil {
								return err
							}
						}
						if _, err := c.f.ReadAt(got, c.at); err != nil {
							return err
						}
						if !bytes.Equal(got, c.model) {
							return fmt.Errorf("worker %d, write %d: file at %d differs from its model", w, i, c.at)
						}
					}
				}
				return nil
			}()
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
