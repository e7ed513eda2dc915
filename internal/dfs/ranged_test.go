package dfs

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"springfs/internal/coherency"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// TestRangedCallbacksPerRemoteFsync: a remote client rewrites 336 pages and
// fsyncs. The home node's flush reclaims the client's one contiguous holding
// with one deny_writes callback — not one per page, nor one per 64-page run —
// and a second client then reads the new bytes. 336 pages in 64 KiB writes
// is three grants of 16, 64 and 256 pages, so the writer ends exactly where
// its write-ahead window does and every block revoked is one it wrote.
func TestRangedCallbacksPerRemoteFsync(t *testing.T) {
	r := newRig(t)
	const pages = 16 + 64 + 256
	home, err := r.srv.Create("rewritten", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := home.WriteAt(bytes.Repeat([]byte{0x11}, pages*vm.PageSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := home.Sync(); err != nil {
		t.Fatal(err)
	}
	writer := r.newRemote("writer")
	rf, err := writer.client.Open("rewritten")
	if err != nil {
		t.Fatal(err)
	}
	m, err := writer.vmm.Map(rf, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]byte, pages*vm.PageSize)
	for i := range fresh {
		fresh[i] = byte(i/vm.PageSize) ^ 0xA5
	}
	for off := 0; off < len(fresh); off += 64 << 10 {
		if _, err := m.WriteAt(fresh[off:off+64<<10], int64(off)); err != nil {
			t.Fatal(err)
		}
	}

	callbacks, revoked := r.srv.Callbacks.Value(), r.sfs.Revocations.Value()
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := rf.Sync(); err != nil {
		t.Fatal(err)
	}
	cbs := r.srv.Callbacks.Value() - callbacks
	t.Logf("fsync of %d remote pages: %d callbacks", pages, cbs)
	if cbs > 1 {
		t.Errorf("the fsync of %d remote pages cost %d callbacks, want at most 1", pages, cbs)
	}
	if got := r.sfs.Revocations.Value() - revoked; got != pages {
		t.Errorf("Revocations moved by %d, want %d (blocks, not call-outs)", got, pages)
	}

	reader := r.newRemote("reader")
	rf2, err := reader.client.Open("rewritten")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := reader.vmm.Map(rf2, vm.RightsRead)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(fresh))
	if _, err := m2.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Error("the second client does not read the first client's bytes")
	}
}

// TestMalformedCallbackReplyIsAnUnreachableHolder: a client that answers a
// deny_writes callback with a frame that does not decode has told the server
// nothing about the modifications it holds. The revocation must report the
// holder lost — not downgrade it and serve the home node's stale copy as if
// the client had said "nothing dirty".
func TestMalformedCallbackReplyIsAnUnreachableHolder(t *testing.T) {
	r := newRig(t)
	home, err := r.srv.Create("contested", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := home.SetLength(vm.PageSize); err != nil {
		t.Fatal(err)
	}

	node := spring.NewNode("rogue")
	t.Cleanup(node.Stop)
	conn, err := r.network.Dial("home:dfs")
	if err != nil {
		t.Fatal(err)
	}
	rogue := &Client{name: "rogue", domain: spring.NewDomain(node, "dfs-client"), files: make(map[uint64]*RemoteFile)}
	rogue.peer = newPeer(conn, func(op Op, payload []byte) ([]byte, error) {
		if op == OpCbDenyWrites || op == OpCbFlushBack {
			return []byte{0, 0, 0, 1, 0, 0, 0}, nil // one extent promised; the frame ends inside its offset
		}
		return rogue.handleCallback(op, payload)
	}, nil)
	rogue.peer.start()
	t.Cleanup(func() { rogue.Close() })
	rf, err := rogue.Open("contested")
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(spring.NewDomain(node, "vmm"), "rogue-vmm").Map(rf, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteAt([]byte("remote dirty"), 0); err != nil {
		t.Fatal(err)
	}

	lost := r.sfs.LostHolders.Value()
	got := make([]byte, 12)
	if _, err := home.ReadAt(got, 0); !errors.Is(err, coherency.ErrHolderUnreachable) {
		t.Fatalf("read behind a holder whose reply did not decode = %q, %v; want ErrHolderUnreachable", got, err)
	}
	if r.sfs.LostHolders.Value() == lost {
		t.Error("LostHolders did not move")
	}
	// The holder was dropped, so the retry proceeds.
	if _, err := home.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatalf("retry: %v", err)
	}
}
