package conformance

import (
	"testing"

	"springfs"
	"springfs/internal/naming"
	"springfs/internal/snapfs"
)

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestBlockPathAllocations counts the allocations of one 4 KiB aligned
// ReadAt and WriteAt on the top file of each shape whose layer pages its
// own files, and fails if either count rises above its ceiling. Before the
// kit's block path served them, cryptfs allocated 2 and 4, compfs 12 and 9,
// snapfs 1 and 2 (2 and 3 on a clone), mirrorfs none and stripefs 34 and 4:
// the path shares one pooled scratch block per operation, cryptfs's writer
// encrypts in it, and snapfs's closures over the epoch chain are gone.
// stripefs's read fell from 34 to 25 when its fan-out stopped starting a
// worker pool and a channel per call.
func TestBlockPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its items under -race")
	}
	for _, c := range []struct {
		shape       string
		read, write float64
	}{
		{"sfs-cryptfs", 2, 2},
		{"sfs-compfs", 12, 9},
		{"sfs-snapfs", 1, 1},
		{"sfs-snapfs-clone", 2, 2},
		{"mirror", 0, 0},
		{"sfs-stripe", 25, 4},
	} {
		t.Run(c.shape, func(t *testing.T) {
			node := springfs.NewNode("allocs-" + c.shape)
			defer node.Stop()
			shape := c.shape
			if shape == "sfs-snapfs-clone" {
				shape = "sfs-snapfs"
			}
			b, err := node.Build(specs[shape])
			if err != nil {
				t.Fatal(err)
			}
			top := b.Top
			if c.shape == "sfs-snapfs-clone" {
				snap := top.(*snapfs.SnapFS)
				if err := snap.Snapshot("base"); err != nil {
					t.Fatal(err)
				}
				if top, err = snap.Clone("base", "work"); err != nil {
					t.Fatal(err)
				}
			}
			f, err := top.Create("allocs.bin", naming.Root)
			if err != nil {
				t.Fatal(err)
			}
			buf := pattern("allocs", 4*springfs.PageSize)
			if _, err := f.WriteAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			blk := buf[:springfs.PageSize]
			read := testing.AllocsPerRun(100, func() {
				if _, err := f.ReadAt(blk, springfs.PageSize); err != nil {
					t.Fatal(err)
				}
			})
			write := testing.AllocsPerRun(100, func() {
				if _, err := f.WriteAt(blk, 2*springfs.PageSize); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: ReadAt %.0f, WriteAt %.0f allocations", c.shape, read, write)
			if read > c.read || write > c.write {
				t.Errorf("%s: ReadAt %.0f, WriteAt %.0f allocations; ceilings %.0f, %.0f", c.shape, read, write, c.read, c.write)
			}
		})
	}
}
