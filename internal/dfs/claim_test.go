package dfs

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"springfs/internal/naming"
	"springfs/internal/unixapi"
)

// Tests of the open-handle claim a client machine holds at the home node:
// one claim stands for all of the machine's handles on a file, and an
// unlink anywhere keeps the file's storage until the last of them closes.

// claims returns how many open-handle claims the home node holds, over every
// client and file.
func (r *rig) claims() int {
	r.srv.mu.Lock()
	clients := make([]*srvClient, 0, len(r.srv.clients))
	for c := range r.srv.clients {
		clients = append(clients, c)
	}
	r.srv.mu.Unlock()
	n := 0
	for _, c := range clients {
		c.mu.Lock()
		for _, k := range c.retained {
			n += k
		}
		c.mu.Unlock()
	}
	return n
}

// process is a unixapi process on node, with no CFS: every call goes to
// the home node.
func (node *remoteNode) process() *unixapi.Process {
	return unixapi.NewProcess(NewClientFS(node.client, node.node.Name()+"-fs"), naming.Root)
}

// reclaimed checks that the home node's disk is back to free blocks base and
// consistent.
func (r *rig) reclaimed(base int64) {
	r.t.Helper()
	if err := r.sfs.SyncFS(); err != nil {
		r.t.Fatal(err)
	}
	if free := r.disk.FreeBlocks(); free != base {
		r.t.Errorf("%d free blocks after the last close, want the %d from before the file", free, base)
	}
	report, err := r.disk.Fsck(false)
	if err != nil {
		r.t.Fatal(err)
	}
	if !report.Clean {
		r.t.Errorf("fsck: %v", report)
	}
}

// TestUnlinkWaitsForTheMachinesLastHandle: two processes on machine A hold
// the file, machine B unlinks it. A's first close drops nothing at the home
// node, the other descriptor still reads every byte, and A's last close
// reclaims the file.
func TestUnlinkWaitsForTheMachinesLastHandle(t *testing.T) {
	r := newRig(t)
	if err := r.sfs.SyncFS(); err != nil {
		t.Fatal(err)
	}
	base := r.disk.FreeBlocks()
	r.homeFile("shared", 16)
	if err := r.sfs.SyncFS(); err != nil {
		t.Fatal(err)
	}
	a := r.newRemote("A")
	p1, p2 := a.process(), a.process()
	fd1, err := p1.Open("shared", unixapi.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	fd2, err := p2.Open("shared", unixapi.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.claims(); n != 1 {
		t.Errorf("machine A's two descriptors hold %d claims at the home node, want 1", n)
	}

	if err := r.newRemote("B").process().Unlink("shared"); err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(fd1); err != nil {
		t.Fatal(err)
	}
	if n := r.claims(); n != 1 {
		t.Errorf("after one of two closes the home node holds %d claims, want 1", n)
	}
	got := make([]byte, 16*page)
	if n, err := p2.Pread(fd2, got, 0); err != nil || n != len(got) || !bytes.Equal(got, fill(16, 0x11)) {
		t.Fatalf("the other descriptor reads %d bytes, %v, after the unlink and one close; want the whole file", n, err)
	}
	if free := r.disk.FreeBlocks(); free >= base {
		t.Errorf("the unlinked file's blocks are free (%d of %d) while a descriptor holds it", free, base)
	}
	if err := p2.Close(fd2); err != nil {
		t.Fatal(err)
	}
	if n := r.claims(); n != 0 {
		t.Errorf("the home node holds %d claims after the last close", n)
	}
	r.reclaimed(base)
}

// TestClaimRacesUnlink: goroutines of one machine open, read and close a
// file while the home node unlinks it. Every descriptor whose open returned
// before the unlink began reads the file whole — no reclaim under an open
// handle — and once all are closed the home node holds no claim and has
// reclaimed the file. (An open whose lookup the unlink overtakes may retain
// a file already reclaimed; that gap is older than the claim and not what
// this tests.)
func TestClaimRacesUnlink(t *testing.T) {
	const workers, pages = 8, 4
	r := newRig(t)
	if err := r.sfs.SyncFS(); err != nil {
		t.Fatal(err)
	}
	base := r.disk.FreeBlocks()
	r.homeFile("contested", pages)
	a := r.newRemote("A")
	want := fill(pages, 0x11)

	var opens atomic.Int64
	var unlinking atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		p := a.process()
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]byte, len(want))
			for {
				fd, err := p.Open("contested", unixapi.O_RDONLY)
				if errors.Is(err, unixapi.ENOENT) {
					return
				}
				if err != nil {
					errs <- err
					return
				}
				opens.Add(1)
				before := !unlinking.Load()
				n, rerr := p.Pread(fd, got, 0)
				cerr := p.Close(fd)
				if !before {
					continue
				}
				if rerr != nil || n != len(want) || !bytes.Equal(got, want) {
					errs <- errors.New("a descriptor opened before the unlink read less than the whole file")
					return
				}
				if cerr != nil {
					errs <- cerr
					return
				}
			}
		}()
	}
	for opens.Load() < 4*workers {
		time.Sleep(time.Millisecond)
	}
	unlinking.Store(true)
	if err := r.srv.Remove("contested", naming.Root); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := r.claims(); n != 0 {
		t.Errorf("the home node holds %d claims after every descriptor closed", n)
	}
	r.reclaimed(base)
}
