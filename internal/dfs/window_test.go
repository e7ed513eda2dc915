package dfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"springfs/internal/coherency"
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/netsim"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// Tests of the write-ahead grant window: the MRSW protocol holds although a
// streaming writer's grants run ahead of its writes.

const page = vm.PageSize

func fill(pages int, b byte) []byte { return bytes.Repeat([]byte{b}, pages*page) }

// window returns f's write-ahead window, in pages.
func (f *RemoteFile) window() (first, end int64) {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	return f.wnext / page, max(f.wend, f.wnext) / page
}

// streamer is a remote node with one file mapped for writing.
type streamer struct {
	*remoteNode
	rf *RemoteFile
	m  *vm.Mapping
}

// homeFile creates name at the home node, pages long, filled with 0x11.
func (r *rig) homeFile(name string, pages int) fsys.File {
	r.t.Helper()
	home, err := r.srv.Create(name, naming.Root)
	if err != nil {
		r.t.Fatal(err)
	}
	if _, err := home.WriteAt(fill(pages, 0x11), 0); err != nil {
		r.t.Fatal(err)
	}
	if err := home.Sync(); err != nil {
		r.t.Fatal(err)
	}
	return home
}

func (r *rig) open(node *remoteNode, name string) *streamer {
	r.t.Helper()
	rf, err := node.client.Open(name)
	if err != nil {
		r.t.Fatal(err)
	}
	m, err := node.vmm.Map(rf, vm.RightsWrite)
	if err != nil {
		r.t.Fatal(err)
	}
	return &streamer{remoteNode: node, rf: rf, m: m}
}

// write overwrites pages [first, first+n) with b and returns the RPCs it
// cost.
func (s *streamer) write(t *testing.T, first, n int, b byte) int64 {
	t.Helper()
	calls := s.client.RemoteCalls.Value()
	if _, err := s.m.WriteAt(fill(n, b), int64(first)*page); err != nil {
		t.Fatalf("%s: write of pages [%d,+%d): %v", s.client.name, first, n, err)
	}
	return s.client.RemoteCalls.Value() - calls
}

// stream writes [0,16) and [16,32): the second grant continues the streak,
// asks for [16,80), and leaves [32,80) as the window.
func (s *streamer) stream(t *testing.T) {
	t.Helper()
	if a, b := s.write(t, 0, 16, 0xA0), s.write(t, 16, 16, 0xA0); a != 1 || b != 1 {
		t.Fatalf("the first two 64 KiB writes cost %d and %d RPCs, want one grant each", a, b)
	}
	if first, end := s.rf.window(); first != 32 || end != 80 {
		t.Fatalf("window after two sequential writes = [%d,%d), want [32,80)", first, end)
	}
}

func (s *streamer) readPage(t *testing.T, pn int) []byte {
	t.Helper()
	got := make([]byte, page)
	if _, err := s.m.ReadAt(got, int64(pn)*page); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return got
}

// TestWindowGrantAheadServesTheStreak: inside the window a write costs no
// round trip; at its end the next grant grows again.
func TestWindowGrantAheadServesTheStreak(t *testing.T) {
	r := newRig(t)
	r.homeFile("streamed", 512)
	a := r.open(r.newRemote("A"), "streamed")
	a.stream(t)
	for pn := 32; pn < 80; pn += 16 {
		if n := a.write(t, pn, 16, 0xA0); n != 0 {
			t.Errorf("write of pages [%d,+16) inside the window cost %d RPCs", pn, n)
		}
	}
	if n := a.write(t, 80, 16, 0xA0); n != 1 {
		t.Errorf("the write at the window's end cost %d RPCs, want 1", n)
	}
	if first, end := a.rf.window(); first != 96 || end != 80+256 {
		t.Errorf("window = [%d,%d), want [96,336): four times the last grant", first, end)
	}
}

// TestWindowRandomOverwritesGetNone: 64 single-page overwrites in no order
// cost exactly one grant each, as before, and leave no window behind.
func TestWindowRandomOverwritesGetNone(t *testing.T) {
	r := newRig(t)
	r.homeFile("random", 256)
	a := r.open(r.newRemote("A"), "random")
	for i := 0; i < 64; i++ {
		pn := (i*37 + 5) % 256 // a permutation step: never the page after the last
		if n := a.write(t, pn, 1, byte(i)); n != 1 {
			t.Fatalf("overwrite %d (page %d) cost %d RPCs, want exactly 1", i, pn, n)
		}
		if first, end := a.rf.window(); first != end {
			t.Fatalf("overwrite %d (page %d) left the window [%d,%d)", i, pn, first, end)
		}
	}
}

// TestWindowStolenBlockGoesBackHome: block 40 is inside A's window, unwritten.
// B reads and then writes it; A's window ends there, so A's own write of the
// block goes back to the home node, takes B's modifications of the blocks
// around it along, and the last writer's bytes win everywhere.
func TestWindowStolenBlockGoesBackHome(t *testing.T) {
	r := newRig(t)
	home := r.homeFile("shared", 128)
	a, b := r.open(r.newRemote("A"), "shared"), r.open(r.newRemote("B"), "shared")
	a.stream(t)

	if got := b.readPage(t, 40); !bytes.Equal(got, fill(1, 0x11)) {
		t.Fatalf("B reads %#x... behind A's window, want the home node's 0x11", got[0])
	}
	if _, end := a.rf.window(); end > 40 {
		t.Fatalf("A's window still ends at %d after B read block 40", end)
	}
	b.write(t, 40, 2, 0xB0)
	if n := a.write(t, 33, 1, 0xA1); n != 0 {
		t.Errorf("a write below the stolen block, still in the window, cost %d RPCs", n)
	}
	if n := a.write(t, 40, 1, 0xA2); n == 0 {
		t.Fatal("A overwrote a block B holds without going back to the home node")
	}
	if err := a.m.Sync(); err != nil {
		t.Fatal(err)
	}
	for pn, want := range map[int]byte{31: 0xA0, 32: 0x11, 33: 0xA1, 40: 0xA2, 41: 0xB0, 42: 0x11} {
		got := make([]byte, page)
		if _, err := home.ReadAt(got, int64(pn)*page); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fill(1, want)) {
			t.Errorf("home node reads %#x... in block %d, want %#x", got[0], pn, want)
		}
		if got := b.readPage(t, pn); !bytes.Equal(got, fill(1, want)) {
			t.Errorf("B reads %#x... in block %d, want %#x", got[0], pn, want)
		}
	}
}

// holdConn lets a test decide in which order a client sees the frames the
// server sent it: frames the predicate picks are kept back until release.
type holdConn struct {
	net.Conn
	hold func(kind uint8, op Op) bool

	mu       sync.Mutex
	cond     *sync.Cond
	ready    [][]byte // whole frames, length prefix included, for Read
	held     [][]byte
	heldEver int
	err      error
	buf      []byte
}

func newHoldConn(conn net.Conn, hold func(kind uint8, op Op) bool) *holdConn {
	h := &holdConn{Conn: conn, hold: hold}
	h.cond = sync.NewCond(&h.mu)
	go h.pump()
	return h
}

func (h *holdConn) pump() {
	for {
		frame := make([]byte, 4)
		_, err := io.ReadFull(h.Conn, frame)
		if err == nil {
			frame = append(frame, make([]byte, binary.BigEndian.Uint32(frame))...)
			_, err = io.ReadFull(h.Conn, frame[4:])
		}
		h.mu.Lock()
		switch {
		case err != nil:
			h.err = err
		case h.hold(frame[4], Op(frame[5])):
			h.held = append(h.held, frame)
			h.heldEver++
		default:
			h.ready = append(h.ready, frame)
		}
		h.cond.Broadcast()
		h.mu.Unlock()
		if err != nil {
			return
		}
	}
}

func (h *holdConn) Read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.buf) == 0 {
		if len(h.ready) > 0 {
			h.buf, h.ready = h.ready[0], h.ready[1:]
		} else if h.err != nil {
			return 0, h.err
		} else {
			h.cond.Wait()
		}
	}
	n := copy(p, h.buf)
	h.buf = h.buf[n:]
	return n, nil
}

// awaitHeld waits until n frames have been kept back in all.
func (h *holdConn) awaitHeld(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.heldEver < n && h.err == nil {
		h.cond.Wait()
	}
}

// release delivers the frames kept back and holds none from now on.
func (h *holdConn) release() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.hold = func(uint8, Op) bool { return false }
	h.ready, h.held = append(h.ready, h.held...), nil
	h.cond.Broadcast()
}

// newHeldRemote is newRemote with the server-to-client frames under hold.
func (r *rig) newHeldRemote(name string, hold func(kind uint8, op Op) bool) (*remoteNode, *holdConn) {
	r.t.Helper()
	node := spring.NewNode(name)
	r.t.Cleanup(node.Stop)
	conn, err := r.network.Dial("home:dfs")
	if err != nil {
		r.t.Fatal(err)
	}
	hc := newHoldConn(conn, hold)
	client := NewClient(hc, spring.NewDomain(node, "dfs-client"), name)
	r.t.Cleanup(func() { client.Close() })
	return &remoteNode{node: node, vmm: vm.New(spring.NewDomain(node, "vmm"), name+"-vmm"), client: client}, hc
}

// TestWindowCallbackCrossesGrantInFlight: the home node grants A a range and
// then takes part of it back for B. The grant's reply and the callback reach
// A's client on different goroutines; in whichever order it handles them, no
// window survives over the block the home node revoked, and A's write of it
// goes home.
func TestWindowCallbackCrossesGrantInFlight(t *testing.T) {
	for _, tc := range []struct {
		name      string
		holdReply bool
		hold      func(kind uint8, op Op) bool
		wantEnd   int64 // the window may not reach past this page
	}{
		// The dangerous order: there is nothing to clip when the callback is
		// handled, and then the reply arrives with a range that has block 40.
		{"callback first, reply held", true, func(k uint8, op Op) bool { return k == kindResponse && op == OpPageIn }, 32},
		{"reply first, callback held", false, func(k uint8, op Op) bool { return k == kindRequest && op == OpCbDenyWrites }, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			home := r.homeFile("crossed", 128)
			b := r.open(r.newRemote("B"), "crossed")
			nodeA, hc := r.newHeldRemote("A", func(uint8, Op) bool { return false })
			a := r.open(nodeA, "crossed")
			a.write(t, 0, 16, 0xA0)
			hc.mu.Lock()
			hc.hold = tc.hold
			hc.mu.Unlock()

			// A's second write asks the home node for [16,80); B's read of
			// block 40 makes the home node call A back.
			grant, read := make(chan error, 1), make(chan error, 1)
			aWrites := func() { _, err := a.m.WriteAt(fill(16, 0xA0), 16*page); grant <- err }
			got := make([]byte, page)
			bReads := func() { _, err := b.m.ReadAt(got, 40*page); read <- err }
			if tc.holdReply {
				go aWrites()
				hc.awaitHeld(1) // the home node has granted; A does not know yet
				bReads()
			} else {
				aWrites()
				go bReads()
				hc.awaitHeld(1) // the callback is at A's door, the window installed
				if _, end := a.rf.window(); end != 80 {
					t.Errorf("window ends at %d before the callback is handled, want 80", end)
				}
			}
			hc.release()
			if err := <-grant; err != nil {
				t.Fatalf("A's write: %v", err)
			}
			if err := <-read; err != nil || !bytes.Equal(got, fill(1, 0x11)) {
				t.Fatalf("B reads %#x... in block 40, %v; want 0x11", got[0], err)
			}

			if _, end := a.rf.window(); end > tc.wantEnd {
				t.Errorf("A's window ends at %d, past what the home node left it (%d)", end, tc.wantEnd)
			}
			if n := a.write(t, 40, 1, 0xA2); n == 0 {
				t.Fatal("A wrote block 40, which B holds, without going back to the home node")
			}
			if err := a.m.Sync(); err != nil {
				t.Fatal(err)
			}
			if _, err := home.ReadAt(got, 40*page); err != nil {
				t.Fatal(err)
			}
			if want, atB := fill(1, 0xA2), b.readPage(t, 40); !bytes.Equal(got, want) || !bytes.Equal(atB, want) {
				t.Errorf("after A's write, home reads %#x... and B reads %#x..., want 0xa2", got[0], atB[0])
			}
		})
	}
}

// TestWindowDroppedWithItsGrants: everything that makes the home node forget
// this client as a writer — its own page-outs that do not retain write, a
// truncation, closing the file — ends the window there too.
func TestWindowDroppedWithItsGrants(t *testing.T) {
	for _, tc := range []struct {
		name    string
		drop    func(t *testing.T, a *streamer)
		wantEnd int64
	}{
		{"page_out", func(t *testing.T, a *streamer) {
			if err := a.m.Cache().Pager().PageOut(50*page, page, fill(1, 0xA3)); err != nil {
				t.Fatal(err)
			}
		}, 50},
		{"write_out", func(t *testing.T, a *streamer) {
			if err := a.m.Cache().Pager().WriteOut(60*page, 2*page, fill(2, 0xA3)); err != nil {
				t.Fatal(err)
			}
		}, 60},
		{"sync keeps it", func(t *testing.T, a *streamer) {
			if err := a.m.Cache().Pager().Sync(50*page, page, fill(1, 0xA3)); err != nil {
				t.Fatal(err)
			}
		}, 80},
		{"shrinking SetLength", func(t *testing.T, a *streamer) {
			if err := a.rf.SetLength(45 * page); err != nil {
				t.Fatal(err)
			}
		}, 45},
		{"Close", func(t *testing.T, a *streamer) {
			if err := a.rf.Close(); err != nil {
				t.Fatal(err)
			}
		}, 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			r.homeFile("dropped", 128)
			a := r.open(r.newRemote("A"), "dropped")
			a.stream(t)
			tc.drop(t, a)
			if first, end := a.rf.window(); first != 32 || end != tc.wantEnd {
				t.Errorf("window = [%d,%d), want [32,%d)", first, end, tc.wantEnd)
			}
		})
	}
}

// TestWindowOfALostHolder: a partitioned client's window is, to the home
// node, blocks a dead writer holds: reading one of them reports
// ErrHolderUnreachable once, reading any other block reports nothing, and
// the client, its session gone, is not granted anything from the window.
func TestWindowOfALostHolder(t *testing.T) {
	r := newRig(t)
	r.srv.SetCallbackTimeout(300 * time.Millisecond)
	home := r.homeFile("partitioned", 128)
	a := r.open(r.newRemote("A"), "partitioned")
	a.stream(t)

	r.network.SetFaults(netsim.Faults{DropProb: 1})
	defer r.network.SetFaults(netsim.Faults{})
	lost := r.sfs.LostHolders.Value()
	got := make([]byte, page)
	if _, err := home.ReadAt(got, 100*page); err != nil {
		t.Errorf("read of a block the lost client never held: %v", err)
	}
	if _, err := home.ReadAt(got, 50*page); !errors.Is(err, coherency.ErrHolderUnreachable) {
		t.Errorf("read of a block in the lost client's window = %v, want ErrHolderUnreachable", err)
	}
	if r.sfs.LostHolders.Value() == lost {
		t.Error("LostHolders did not move")
	}
	if _, err := home.ReadAt(got, 50*page); err != nil || !bytes.Equal(got, fill(1, 0x11)) {
		t.Errorf("retry = %#x..., %v; want the home node's copy", got[0], err)
	}

	// The server dropped the connection; the client's side learns of it.
	deadline := time.Now().Add(5 * time.Second)
	for !a.client.peer.isClosed() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	calls := a.client.RemoteCalls.Value()
	if _, err := a.m.WriteAt(fill(1, 0xA4), 33*page); !errors.Is(err, fsys.ErrUnavailable) {
		t.Errorf("write inside the window on a dead session = %v, want ErrUnavailable", err)
	}
	if a.client.RemoteCalls.Value() == calls {
		t.Error("the dead session's window answered a grant")
	}
}

// TestWindowLeavesNothingBehind: a window past the end of the file does not
// make the file longer, and removing the file leaves the home node's
// coherency layer no state for the blocks that were only ever granted.
func TestWindowLeavesNothingBehind(t *testing.T) {
	r := newRig(t)
	files := len(r.sfs.Files())
	home := r.homeFile("short", 32)
	a := r.open(r.newRemote("A"), "short")
	a.stream(t) // the window is [32,80); the file ends at 32
	if err := a.m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := a.rf.Sync(); err != nil {
		t.Fatal(err)
	}
	if attrs, err := home.Stat(); err != nil || attrs.Length != 32*page {
		t.Errorf("length after the streak = %d, %v; want %d", attrs.Length, err, 32*page)
	}
	if attrs, err := a.rf.Stat(); err != nil || attrs.Length != 32*page {
		t.Errorf("length at the client = %d, %v; want %d", attrs.Length, err, 32*page)
	}
	got := make([]byte, 32*page)
	if _, err := home.ReadAt(got, 0); err != nil || !bytes.Equal(got, fill(32, 0xA0)) {
		t.Errorf("home node reads %#x..., %v; want the writer's bytes", got[0], err)
	}
	if err := a.rf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.Remove("short", naming.Root); err != nil {
		t.Fatal(err)
	}
	if n := len(r.sfs.Files()); n != files {
		t.Errorf("the coherency layer keeps %d files after the removal, had %d before", n, files)
	}
}
