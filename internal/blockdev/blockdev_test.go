package blockdev

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"
)

func TestReadWriteRoundTrip(t *testing.T) {
	d := NewMem(16, ProfileNone)
	defer d.Close()
	out := make([]byte, BlockSize)
	in := make([]byte, BlockSize)
	for i := range in {
		in[i] = byte(i % 251)
	}
	if err := d.WriteBlock(3, in); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	if err := d.ReadBlock(3, out); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	if !bytes.Equal(in, out) {
		t.Error("read data differs from written data")
	}
}

func TestUnwrittenBlocksReadZero(t *testing.T) {
	d := NewMem(4, ProfileNone)
	defer d.Close()
	buf := make([]byte, BlockSize)
	buf[0] = 0xFF
	if err := d.ReadBlock(0, buf); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestBoundsChecking(t *testing.T) {
	d := NewMem(4, ProfileNone)
	defer d.Close()
	buf := make([]byte, BlockSize)
	tests := []struct {
		name string
		bn   int64
	}{
		{"negative", -1},
		{"at capacity", 4},
		{"past capacity", 100},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := d.ReadBlock(tt.bn, buf); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("ReadBlock(%d) error = %v, want ErrOutOfRange", tt.bn, err)
			}
			if err := d.WriteBlock(tt.bn, buf); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("WriteBlock(%d) error = %v, want ErrOutOfRange", tt.bn, err)
			}
		})
	}
}

func TestBadBufferSize(t *testing.T) {
	d := NewMem(4, ProfileNone)
	defer d.Close()
	if err := d.ReadBlock(0, make([]byte, 100)); !errors.Is(err, ErrBadSize) {
		t.Errorf("short buffer read error = %v, want ErrBadSize", err)
	}
	if err := d.WriteBlock(0, make([]byte, BlockSize+1)); !errors.Is(err, ErrBadSize) {
		t.Errorf("long buffer write error = %v, want ErrBadSize", err)
	}
}

func TestClosedDevice(t *testing.T) {
	d := NewMem(4, ProfileNone)
	d.Close()
	buf := make([]byte, BlockSize)
	if err := d.ReadBlock(0, buf); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close error = %v, want ErrClosed", err)
	}
	if err := d.WriteBlock(0, buf); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close error = %v, want ErrClosed", err)
	}
	if err := d.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("flush after close error = %v, want ErrClosed", err)
	}
}

func TestLatencyCharged(t *testing.T) {
	profile := LatencyProfile{Seek: 2 * time.Millisecond, Rotation: time.Millisecond, PerBlock: time.Millisecond}
	d := NewMem(16, profile)
	defer d.Close()
	buf := make([]byte, BlockSize)
	start := time.Now()
	if err := d.ReadBlock(5, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Errorf("non-sequential read took %v, want >= seek+rotation+transfer = 4ms", elapsed)
	}
	// Sequential read skips the seek.
	start = time.Now()
	if err := d.ReadBlock(6, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 2*time.Millisecond {
		t.Errorf("sequential read took %v, want >= rotation+transfer = 2ms", elapsed)
	}
	if elapsed > 3500*time.Microsecond {
		t.Logf("sequential read took %v (scheduling noise); seek may have been charged", elapsed)
	}
}

func TestIOCounters(t *testing.T) {
	d := NewMem(8, ProfileNone)
	defer d.Close()
	buf := make([]byte, BlockSize)
	for i := int64(0); i < 5; i++ {
		if err := d.WriteBlock(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 3; i++ {
		if err := d.ReadBlock(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	r, w := d.IOCount()
	if r != 3 || w != 5 {
		t.Errorf("IOCount = (%d, %d), want (3, 5)", r, w)
	}
}

func TestFaultInjectionReadsWrites(t *testing.T) {
	var failReads, failWrites bool
	d := NewFault(NewMem(8, ProfileNone), func(bn int64, write bool) error {
		if write && failWrites || !write && failReads {
			return ErrIO
		}
		return nil
	})
	defer d.Close()
	buf := make([]byte, BlockSize)
	failReads = true
	if err := d.ReadBlock(0, buf); !errors.Is(err, ErrIO) {
		t.Errorf("read with injected failure error = %v, want ErrIO", err)
	}
	if err := d.WriteBlock(0, buf); err != nil {
		t.Errorf("write should still work: %v", err)
	}
	failReads, failWrites = false, true
	if err := d.WriteBlock(0, buf); !errors.Is(err, ErrIO) {
		t.Errorf("write with injected failure error = %v, want ErrIO", err)
	}
	if err := d.ReadBlock(0, buf); err != nil {
		t.Errorf("read should work again: %v", err)
	}
}

// badBlock is a fault that fails every I/O to block bad.
func badBlock(bad int64) func(int64, bool) error {
	return func(bn int64, _ bool) error {
		if bn == bad {
			return ErrIO
		}
		return nil
	}
}

func TestFaultInjectionBadBlock(t *testing.T) {
	d := NewFault(NewMem(8, ProfileNone), badBlock(3))
	defer d.Close()
	buf := make([]byte, BlockSize)
	if err := d.ReadBlock(3, buf); !errors.Is(err, ErrIO) {
		t.Errorf("bad block read error = %v, want ErrIO", err)
	}
	if err := d.ReadBlock(2, buf); err != nil {
		t.Errorf("good block read error = %v", err)
	}
}

func TestFaultInjectionFailAfter(t *testing.T) {
	budget := int64(2) // blocks still moved before all I/O fails; -1: no fault
	d := NewFault(NewMem(8, ProfileNone), func(int64, bool) error {
		switch {
		case budget == 0:
			return ErrIO
		case budget > 0:
			budget--
		}
		return nil
	})
	defer d.Close()
	buf := make([]byte, BlockSize)
	if err := d.WriteBlock(0, buf); err != nil {
		t.Fatalf("op 1: %v", err)
	}
	if err := d.WriteBlock(1, buf); err != nil {
		t.Fatalf("op 2: %v", err)
	}
	if err := d.WriteBlock(2, buf); !errors.Is(err, ErrIO) {
		t.Errorf("op 3 error = %v, want ErrIO", err)
	}
	budget = -1
	if err := d.WriteBlock(2, buf); err != nil {
		t.Errorf("after disabling fault: %v", err)
	}
}

// TestPropertyWriteThenReadIdentity is a property-based test: for any block
// number in range and any content, a write followed by a read returns the
// same content.
func TestPropertyWriteThenReadIdentity(t *testing.T) {
	d := NewMem(64, ProfileNone)
	defer d.Close()
	f := func(bnRaw uint16, seed byte) bool {
		bn := int64(bnRaw % 64)
		in := make([]byte, BlockSize)
		for i := range in {
			in[i] = seed + byte(i)
		}
		if err := d.WriteBlock(bn, in); err != nil {
			return false
		}
		out := make([]byte, BlockSize)
		if err := d.ReadBlock(bn, out); err != nil {
			return false
		}
		return bytes.Equal(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyWritesAreIsolated verifies writing one block never disturbs
// another block.
func TestPropertyWritesAreIsolated(t *testing.T) {
	d := NewMem(64, ProfileNone)
	defer d.Close()
	marker := make([]byte, BlockSize)
	for i := range marker {
		marker[i] = 0xAB
	}
	if err := d.WriteBlock(10, marker); err != nil {
		t.Fatal(err)
	}
	f := func(bnRaw uint16) bool {
		bn := int64(bnRaw % 64)
		if bn == 10 {
			return true
		}
		junk := make([]byte, BlockSize)
		for i := range junk {
			junk[i] = byte(bn)
		}
		if err := d.WriteBlock(bn, junk); err != nil {
			return false
		}
		out := make([]byte, BlockSize)
		if err := d.ReadBlock(10, out); err != nil {
			return false
		}
		return bytes.Equal(out, marker)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkReadNoLatency(b *testing.B) {
	d := NewMem(1024, ProfileNone)
	defer d.Close()
	buf := make([]byte, BlockSize)
	b.SetBytes(BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.ReadBlock(int64(i%1024), buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadFastProfile(b *testing.B) {
	d := NewMem(1024, ProfileFast)
	defer d.Close()
	buf := make([]byte, BlockSize)
	b.SetBytes(BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.ReadBlock(int64(i%1024), buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReadRunMatchesPerBlockReads(t *testing.T) {
	d := NewMem(32, ProfileNone)
	defer d.Close()
	for bn := int64(0); bn < 8; bn++ {
		blk := make([]byte, BlockSize)
		for i := range blk {
			blk[i] = byte(bn + 1)
		}
		if err := d.WriteBlock(bn, blk); err != nil {
			t.Fatal(err)
		}
	}
	run := make([]byte, 8*BlockSize)
	if err := d.ReadRun(0, run); err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	single := make([]byte, BlockSize)
	for bn := int64(0); bn < 8; bn++ {
		if err := d.ReadBlock(bn, single); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(single, run[bn*BlockSize:(bn+1)*BlockSize]) {
			t.Errorf("block %d differs between ReadRun and ReadBlock", bn)
		}
	}
}

func TestWriteRunRoundTrip(t *testing.T) {
	d := NewMem(32, ProfileNone)
	defer d.Close()
	run := make([]byte, 4*BlockSize)
	for i := range run {
		run[i] = byte(i % 253)
	}
	if err := d.WriteRun(3, run); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	got := make([]byte, 4*BlockSize)
	if err := d.ReadRun(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(run, got) {
		t.Error("run round trip mismatch")
	}
}

func TestRunBounds(t *testing.T) {
	d := NewMem(8, ProfileNone)
	defer d.Close()
	buf := make([]byte, 4*BlockSize)
	if err := d.ReadRun(6, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("run past end error = %v, want ErrOutOfRange", err)
	}
	if err := d.WriteRun(-1, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative run error = %v, want ErrOutOfRange", err)
	}
	if err := d.ReadRun(0, make([]byte, 100)); !errors.Is(err, ErrBadSize) {
		t.Errorf("unaligned run error = %v, want ErrBadSize", err)
	}
	if err := d.ReadRun(0, nil); !errors.Is(err, ErrBadSize) {
		t.Errorf("empty run error = %v, want ErrBadSize", err)
	}
}

func TestRunFaultInjection(t *testing.T) {
	mem := NewMem(8, ProfileNone)
	d := NewFault(mem, badBlock(2))
	defer d.Close()
	buf := make([]byte, 4*BlockSize)
	if err := d.ReadRun(0, buf); !errors.Is(err, ErrIO) {
		t.Errorf("run over bad block error = %v, want ErrIO", err)
	}
	buf = bytes.Repeat([]byte{7}, 4*BlockSize)
	if err := d.WriteRun(0, buf); !errors.Is(err, ErrIO) {
		t.Errorf("write run over bad block error = %v, want ErrIO", err)
	}
	got, want := make([]byte, 4*BlockSize), append(buf[:2*BlockSize:2*BlockSize], make([]byte, 2*BlockSize)...)
	if err := mem.ReadRun(0, got); err != nil || !bytes.Equal(got, want) {
		t.Errorf("a failed write run landed other than the blocks before the bad one (%v)", err)
	}
}

// TestChargeModel pins the latency model both modelled devices charge
// through their one transfer path, and the head position each I/O leaves.
// The expected delays are the single-block and run formulas written out:
// Rotation + PerBlock, and Rotation + n·PerBlock, each plus Seek unless
// the I/O starts right after the previous one ended.
func TestChargeModel(t *testing.T) {
	p := LatencyProfile{Seek: 10 * time.Millisecond, Rotation: 3 * time.Millisecond, PerBlock: time.Millisecond}
	seek, rot, per := p.Seek, p.Rotation, p.PerBlock
	steps := []struct {
		what        string
		bn, n, head int64
		want        time.Duration
	}{
		{"first block", 5, 1, 5, seek + rot + per},
		{"next block", 6, 1, 6, rot + per},
		{"run right after", 7, 4, 10, rot + 4*per},
		{"run elsewhere", 20, 8, 27, seek + rot + 8*per},
		{"block inside the last run", 26, 1, 26, seek + rot + per},
		{"block after the head", 27, 1, 27, rot + per},
		{"run back at the start", 0, 3, 2, seek + rot + 3*per},
	}
	file, err := OpenFile(filepath.Join(t.TempDir(), "vol.img"), 32, p)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for name, c := range map[string]*core{"MemDevice": &NewMem(32, p).core, "FileDevice": &file.core} {
		for _, s := range steps {
			if got := c.charge(s.bn, s.n); got != s.want || c.lastBn != s.head {
				t.Errorf("%s, %s: charged %v, head at %d; want %v, %d", name, s.what, got, c.lastBn, s.want, s.head)
			}
		}
	}
	// A transfer moves the head the same way.
	mem := NewMem(32, ProfileNone)
	if err := mem.WriteRun(9, make([]byte, 3*BlockSize)); err != nil || mem.lastBn != 11 {
		t.Errorf("after a 3-block run at 9: err %v, head at %d, want 11", err, mem.lastBn)
	}
}

func TestRunChargesOnePositioningDelay(t *testing.T) {
	profile := LatencyProfile{Seek: 10 * time.Millisecond, Rotation: time.Millisecond, PerBlock: time.Millisecond}
	d := NewMem(64, profile)
	defer d.Close()
	buf := make([]byte, 8*BlockSize)
	start := time.Now()
	if err := d.ReadRun(5, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// One seek + one rotation + 8 transfers = 19ms; per-block reads would
	// pay 8 seeks = 88ms.
	if elapsed < 19*time.Millisecond {
		t.Errorf("run took %v, want >= 19ms", elapsed)
	}
	if elapsed > 60*time.Millisecond {
		t.Errorf("run took %v; looks like per-block positioning was charged", elapsed)
	}
	// A run sequential to the previous I/O skips the seek.
	start = time.Now()
	if err := d.ReadRun(13, buf); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e > 25*time.Millisecond {
		t.Errorf("sequential run took %v; seek should not be charged", e)
	}
}
