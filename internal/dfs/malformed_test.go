package dfs

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"springfs/internal/compfs"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// TestMalformedFileFramesAreRefused sends file requests whose offsets and
// sizes no client of ours would send at a server exporting COMPFS on SFS
// (the Figure 9 stack, whose block helpers index by the offset). Each must
// come back as a protocol error — not a panic in the serving goroutine, an
// allocation the frame's sender chose the size of, or a walk over a range it
// chose — and the session must go on serving.
func TestMalformedFileFramesAreRefused(t *testing.T) {
	r := newRig(t)
	comp := compfs.New(spring.NewDomain(r.homeNode, "compfs"), "compfs", compfs.ModeCoherent)
	if err := comp.StackOn(r.sfs); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(spring.NewDomain(r.homeNode, "dfs-comp"), "dfs-comp", naming.Root)
	if err := srv.StackOn(comp); err != nil {
		t.Fatal(err)
	}
	l, err := r.network.Listen("home:dfs-comp")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	conn, err := r.network.Dial("home:dfs-comp")
	if err != nil {
		t.Fatal(err)
	}
	node := spring.NewNode("remote")
	t.Cleanup(node.Stop)
	client := NewClient(conn, spring.NewDomain(node, "dfs-client"), "remote")
	t.Cleanup(func() { client.Close() })

	want := bytes.Repeat([]byte("compressible "), 1000)
	f, err := client.Create("victim")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}

	read := func(off int64, n uint32) func(*encoder) {
		return func(e *encoder) { e.i64(off); e.u32(n) }
	}
	pageIn := func(off, size, maxSize vm.Offset, access vm.Rights) func(*encoder) {
		return func(e *encoder) { e.i64(off); e.i64(size); e.i64(maxSize); e.u8(uint8(access)) }
	}
	const page = vm.PageSize
	for _, tc := range []struct {
		name string
		op   Op
		args func(*encoder)
	}{
		{"read at a negative offset", OpRead, read(-1, 16)},
		{"read at the most negative offset", OpRead, read(-1<<63, 16)},
		{"write at a negative offset", OpWrite, func(e *encoder) { e.i64(-1); e.bytes([]byte("must not land")) }},
		{"write past the largest offset", OpWrite, func(e *encoder) { e.i64(math.MaxInt64 - 5); e.bytes([]byte("must not wrap")) }},
		{"read of 4 GiB", OpRead, read(0, 1<<32-1)},
		{"page-in at a negative offset", OpPageIn, pageIn(-page, page, page, vm.RightsRead)},
		{"page-in past the largest offset", OpPageIn, pageIn(math.MaxInt64-page+1, page, page, vm.RightsRead)},
		{"page-in of no pages", OpPageIn, pageIn(0, 0, 0, vm.RightsRead)},
		{"page-in of a negative size", OpPageIn, pageIn(0, -page, page, vm.RightsRead)},
		{"page-in of part of a page", OpPageIn, pageIn(0, page+1, page+1, vm.RightsRead)},
		{"page-in of a terabyte", OpPageIn, pageIn(0, 1<<40, 1<<40, vm.RightsWrite)},
		{"page-in hinting a terabyte", OpPageIn, pageIn(0, page, 1<<40, vm.RightsRead)},
		{"page-in hinting part of a page", OpPageIn, pageIn(0, page, 2*page+1, vm.RightsRead)},
	} {
		e := encoder{}
		e.u64(f.ID())
		tc.args(&e)
		if _, err := client.call(tc.op, e.b); err == nil || !strings.Contains(err.Error(), "protocol error") {
			t.Errorf("%s: %v, want a protocol error", tc.name, err)
		}
		got := make([]byte, len(want))
		if _, err := f.ReadAt(got, 0); (err != nil && err != io.EOF) || !bytes.Equal(got, want) {
			t.Fatalf("after %s the session no longer serves the file: %v", tc.name, err)
		}
	}
	if l, err := f.GetLength(); err != nil || l != int64(len(want)) {
		t.Errorf("length after the refused frames = %d, %v; want %d", l, err, len(want))
	}
}
