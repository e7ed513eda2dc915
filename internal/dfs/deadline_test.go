package dfs

import (
	"errors"
	"io"
	"os"
	"testing"
	"time"

	"springfs/internal/netsim"
)

// TestTransferBytes pins the payload-size extraction against the exact
// encodings the client emits, so a wire-format change that moves the size
// fields breaks here instead of silently mis-scaling deadlines.
func TestTransferBytes(t *testing.T) {
	var read encoder
	read.u64(1)
	read.i64(4096)
	read.u32(65536)

	var pageIn encoder
	pageIn.u64(1)
	pageIn.i64(0)
	pageIn.i64(4096)   // minSize
	pageIn.i64(262144) // maxSize: the transfer bound
	pageIn.u8(1)

	var write encoder
	write.u64(1)
	write.i64(0)
	write.bytes(make([]byte, 100))

	var pageOut encoder
	pageOut.u64(1)
	pageOut.i64(0)
	pageOut.u8(RetainNone)
	pageOut.bytes(make([]byte, 8192))

	var app encoder
	app.u64(1)
	app.bytes(make([]byte, 50))

	// A reclaiming callback names the range whose modified pages it may
	// bring back; a destroy names "everything", which a frame bounds.
	var deny, destroy encoder
	deny.u64(1)
	deny.i64(4096)
	deny.i64(336 * 4096)
	destroy.u64(1)
	destroy.i64(0)
	destroy.i64(1 << 62)

	cases := []struct {
		name    string
		op      Op
		payload []byte
		want    int64
	}{
		{"cb_deny_writes range", OpCbDenyWrites, deny.b, 336 * 4096},
		{"cb_flush_back range", OpCbFlushBack, deny.b, 336 * 4096},
		{"cb_flush_back of everything", OpCbFlushBack, destroy.b, maxFrame},
		{"cb_delete_range brings nothing back", OpCbDeleteRange, deny.b, 0},
		{"short callback payload", OpCbDenyWrites, make([]byte, 20), 0},
		{"read", OpRead, read.b, 65536},
		{"page_in maxSize", OpPageIn, pageIn.b, 262144},
		{"write", OpWrite, write.b, int64(len(write.b))},
		{"page_out", OpPageOut, pageOut.b, int64(len(pageOut.b))},
		{"append", OpAppend, app.b, int64(len(app.b))},
		{"lookup moves no bulk data", OpLookup, []byte("some/path"), 0},
		{"short read payload", OpRead, make([]byte, 10), 0},
		{"short page_in payload", OpPageIn, make([]byte, 20), 0},
	}
	for _, c := range cases {
		if got := transferBytes(c.op, c.payload); got != c.want {
			t.Errorf("%s: transferBytes = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestLargeExtentDeadlineScalesWithPayload fetches a 4 MiB extent over a
// 32 MiB/s link (~125 ms of pure transfer time; the sender pays it while
// the caller's deadline runs). With byte-rate scaling disabled, a 40 ms
// flat deadline kills the transfer mid-flight; with the rate configured,
// the same flat deadline stretches to cover the payload and the transfer
// completes. This is the regression the striping layer exposed: K-server
// page traffic moves multi-megabyte extents whose transfer time
// legitimately exceeds any flat small-op deadline.
func TestLargeExtentDeadlineScalesWithPayload(t *testing.T) {
	r := newRigWithProfile(t, netsim.Profile{BytesPerSecond: 32 << 20})
	payload := make([]byte, 4<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	writer := r.newRemote("writer")
	f, err := writer.client.Create("big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}

	const flat = 40 * time.Millisecond
	remote1 := r.newRemote("remote1")
	f1, err := remote1.client.Open("big")
	if err != nil {
		t.Fatal(err)
	}
	remote1.client.SetCallTimeout(flat)
	remote1.client.SetCallByteRate(0) // flat deadline only
	start := time.Now()
	if _, err := f1.ReadAt(make([]byte, len(payload)), 0); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("4MiB read with flat %v deadline = %v, want deadline error", flat, err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline fired after %v, want close to %v", elapsed, flat)
	}

	// Same flat deadline, but scaled by an assumed 4 MiB/s link rate: the
	// deadline now budgets ~1 s for the payload and the read goes through.
	// A fresh connection avoids queueing behind the abandoned responses
	// still transmitting on remote1's link.
	remote2 := r.newRemote("remote2")
	f2, err := remote2.client.Open("big")
	if err != nil {
		t.Fatal(err)
	}
	remote2.client.SetCallTimeout(flat)
	remote2.client.SetCallByteRate(4 << 20)
	got := make([]byte, len(payload))
	if _, err := f2.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatalf("4MiB read with byte-rate-scaled deadline: %v", err)
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], payload[i])
		}
	}
}
