package blockdev

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"springfs/internal/stats"
)

func TestFileDeviceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	d, err := OpenFile(path, 16, ProfileNone)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.NumBlocks() != 16 {
		t.Errorf("NumBlocks = %d", d.NumBlocks())
	}
	in := make([]byte, BlockSize)
	copy(in, "persisted on the host")
	if err := d.WriteBlock(5, in); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, BlockSize)
	if err := d.ReadBlock(5, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Error("round trip mismatch")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestFileDevicePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	d, err := OpenFile(path, 8, ProfileNone)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]byte, BlockSize)
	copy(in, "survives reopen")
	if err := d.WriteBlock(2, in); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenFile(path, 8, ProfileNone)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	out := make([]byte, BlockSize)
	if err := d2.ReadBlock(2, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Error("data lost across reopen")
	}
}

func TestFileDeviceBoundsAndClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	d, err := OpenFile(path, 4, ProfileNone)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	if err := d.ReadBlock(4, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out of range read = %v", err)
	}
	if err := d.WriteBlock(-1, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative write = %v", err)
	}
	if err := d.ReadBlock(0, make([]byte, 7)); !errors.Is(err, ErrBadSize) {
		t.Errorf("bad size = %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
	if err := d.ReadBlock(0, buf); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close = %v", err)
	}
}

func TestFileDeviceHostsAFileSystem(t *testing.T) {
	// Formatting is exercised end-to-end in the root-package example; at
	// this level just verify a grown existing image keeps its size.
	path := filepath.Join(t.TempDir(), "vol.img")
	d, err := OpenFile(path, 32, ProfileNone)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Reopening with a smaller requested size keeps the larger file.
	d2, err := OpenFile(path, 8, ProfileNone)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumBlocks() != 32 {
		t.Errorf("NumBlocks after reopen = %d, want 32", d2.NumBlocks())
	}
}

// TestFileDeviceIsTraced: a persistent disk records its I/O into the same
// histograms as the RAM disk, one sample per transfer.
func TestFileDeviceIsTraced(t *testing.T) {
	d, err := OpenFile(filepath.Join(t.TempDir(), "vol.img"), 8, ProfileNone)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	reads := stats.Default.Histogram("blockdev.read")
	before := reads.Count()
	if err := d.ReadRun(2, make([]byte, 4*BlockSize)); err != nil {
		t.Fatal(err)
	}
	if n := reads.Count() - before; n != 1 {
		t.Errorf("a 4-block ReadRun added %d samples to blockdev.read, want 1", n)
	}
}
