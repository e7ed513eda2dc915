package dfs_test

import (
	"bytes"
	"testing"

	"springfs/internal/blockdev"
	"springfs/internal/cfs"
	"springfs/internal/coherency"
	"springfs/internal/dfs"
	"springfs/internal/disklayer"
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/netsim"
	"springfs/internal/spring"
	"springfs/internal/unixapi"
	"springfs/internal/vm"
)

// Round-trip counts of the Figure 9 path — unixapi → CFS → DFS client →
// netsim → DFS server → SFS — on a network with no delay: counts, never
// time. What a call costs on a 2 ms link is these numbers times the link.

// cfsView is a client machine's name space with CFS running: every remote
// file a resolution returns is interposed on.
type cfsView struct {
	*dfs.ClientFS
	cfs *cfs.CFS
}

func (c *cfsView) Create(name string, cred naming.Credentials) (fsys.File, error) {
	f, err := c.ClientFS.Create(name, cred)
	if err != nil {
		return nil, err
	}
	return c.cfs.InterposeObject(f).(fsys.File), nil
}

func (c *cfsView) Open(name string, cred naming.Credentials) (fsys.File, error) {
	f, err := c.ClientFS.Open(name, cred)
	if err != nil {
		return nil, err
	}
	return c.cfs.InterposeObject(f).(fsys.File), nil
}

func (c *cfsView) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	obj, err := c.ClientFS.Resolve(name, cred)
	if err != nil {
		return nil, err
	}
	return c.cfs.InterposeObject(obj), nil
}

// countRig is a home node exporting an SFS and one client machine with CFS.
type countRig struct {
	srv    *dfs.Server // also the home node's own view of the files
	client *dfs.Client
	proc   *unixapi.Process
}

func newCountRig(t *testing.T) *countRig {
	t.Helper()
	homeNode := spring.NewNode("home")
	t.Cleanup(homeNode.Stop)
	homeVMM := vm.New(spring.NewDomain(homeNode, "vmm"), "home-vmm")
	dev := blockdev.NewMem(4096, blockdev.ProfileNone)
	if err := disklayer.Mkfs(dev, disklayer.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	diskDomain := spring.NewDomain(homeNode, "disk")
	disk, err := disklayer.Mount(dev, diskDomain, homeVMM, "disk0a")
	if err != nil {
		t.Fatal(err)
	}
	sfs := coherency.New(diskDomain, homeVMM, "sfs")
	if err := sfs.StackOn(disk); err != nil {
		t.Fatal(err)
	}
	srv := dfs.NewServer(spring.NewDomain(homeNode, "dfs"), "dfs", naming.Root)
	if err := srv.StackOn(sfs); err != nil {
		t.Fatal(err)
	}
	network := netsim.New(netsim.ProfileNone)
	l, err := network.Listen("home:dfs")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)

	machine := spring.NewNode("client")
	t.Cleanup(machine.Stop)
	conn, err := network.Dial("home:dfs")
	if err != nil {
		t.Fatal(err)
	}
	client := dfs.NewClient(conn, spring.NewDomain(machine, "dfsc"), "dfsc")
	t.Cleanup(func() { client.Close() })
	view := &cfsView{
		ClientFS: dfs.NewClientFS(client, "dfs-cfs"),
		cfs:      cfs.New(spring.NewDomain(machine, "cfs"), vm.New(spring.NewDomain(machine, "vmm"), "client-vmm"), "cfs"),
	}
	return &countRig{srv: srv, client: client, proc: unixapi.NewProcess(view, naming.Root)}
}

// homeFile creates path on the home node with size bytes of fill, synced.
func (r *countRig) homeFile(t *testing.T, path string, size int, fill byte) {
	t.Helper()
	f, err := r.srv.Create(path, naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{fill}, size), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// trips runs fn and returns the RPCs the client issued and the callbacks the
// server issued meanwhile.
func (r *countRig) trips(t *testing.T, fn func() error) (rpcs, callbacks int64) {
	t.Helper()
	rpcs, callbacks = r.client.RemoteCalls.Value(), r.srv.Callbacks.Value()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return r.client.RemoteCalls.Value() - rpcs, r.srv.Callbacks.Value() - callbacks
}

// TestWindowSequentialRewriteCounts: a sequential 1 MiB rewrite in 64 KiB
// pwrites is a handful of write grants that grow along the streak, not one
// per pwrite, and its fsync reclaims the client's one contiguous holding —
// window remainder included — with one callback.
func TestWindowSequentialRewriteCounts(t *testing.T) {
	r := newCountRig(t)
	const size, chunk = 1 << 20, 64 << 10
	r.homeFile(t, "big", 2*size, 0x11)
	fd, err := r.proc.Open("big", unixapi.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]byte, size)
	for i := range fresh {
		fresh[i] = byte(i/vm.PageSize) ^ 0x5A
	}
	rpcs, callbacks := r.trips(t, func() error {
		for off := 0; off < size; off += chunk {
			if _, err := r.proc.Pwrite(fd, fresh[off:off+chunk], int64(off)); err != nil {
				return err
			}
		}
		return nil
	})
	if rpcs > 4 || callbacks != 0 {
		t.Errorf("16 sequential 64 KiB pwrites cost %d RPCs and %d callbacks, want at most 4 grants and no callback", rpcs, callbacks)
	}
	rpcs, callbacks = r.trips(t, func() error { return r.proc.Fsync(fd) })
	if callbacks > 1 {
		t.Errorf("the fsync cost %d callbacks, want at most 1", callbacks)
	}
	t.Logf("fsync: %d RPCs, %d callbacks", rpcs, callbacks)

	home, err := r.srv.Open("big", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*size)
	if _, err := home.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:size], fresh) {
		t.Error("the home node does not read the rewritten half")
	}
	if !bytes.Equal(got[size:], bytes.Repeat([]byte{0x11}, size)) {
		t.Error("the half the writer never touched changed, although part of it was in the window")
	}
}

// TestAttrFlushAnswersAtHome: a client cannot hold modified attributes, so
// the home node's attribute poll costs it no callback — a stat by path is the
// lookup alone, an open+close is lookup, retain and release.
func TestAttrFlushAnswersAtHome(t *testing.T) {
	r := newCountRig(t)
	r.homeFile(t, "small", 16<<10, 0x22)
	// Interpose and page something in, so the server holds a session — and
	// with it an fs_cache connection the home node polls — for this client.
	fd, err := r.proc.Open("small", unixapi.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.proc.Pread(fd, make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}

	rpcs, callbacks := r.trips(t, func() error {
		st, err := r.proc.Stat("small")
		if err == nil && st.Size != 16<<10 {
			t.Errorf("stat size = %d", st.Size)
		}
		return err
	})
	if rpcs != 1 || callbacks != 0 {
		t.Errorf("stat by path cost %d RPCs and %d callbacks, want 1 and 0", rpcs, callbacks)
	}
	rpcs, callbacks = r.trips(t, func() error {
		fd, err := r.proc.Open("small", unixapi.O_RDONLY)
		if err != nil {
			return err
		}
		return r.proc.Close(fd)
	})
	if rpcs != 3 || callbacks != 0 {
		t.Errorf("open+close cost %d RPCs and %d callbacks, want 3 and 0", rpcs, callbacks)
	}
}

// TestLifecycleRoundTrips: creat → pwrite 2 KiB → fsync → close → stat →
// rename → unlink, the benchmark's file lifecycle, in at most 17 round trips
// (it was 14 RPCs and 6 callbacks).
func TestLifecycleRoundTrips(t *testing.T) {
	r := newCountRig(t)
	if err := r.proc.Mkdir("dir"); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x33}, 2048)
	lifecycle := func(path string) func() error {
		return func() error {
			fd, err := r.proc.Open(path, unixapi.O_WRONLY|unixapi.O_CREAT|unixapi.O_TRUNC)
			if err != nil {
				return err
			}
			if _, err := r.proc.Pwrite(fd, payload, 0); err != nil {
				return err
			}
			if err := r.proc.Fsync(fd); err != nil {
				return err
			}
			if err := r.proc.Close(fd); err != nil {
				return err
			}
			if st, err := r.proc.Stat(path); err != nil || st.Size != int64(len(payload)) {
				t.Errorf("stat after close = %d bytes, %v", st.Size, err)
			}
			if err := r.proc.Rename(path, path+".r"); err != nil {
				return err
			}
			return r.proc.Unlink(path + ".r")
		}
	}
	// The first lifecycle pays for nothing the second does not, but count
	// the steady state anyway.
	r.trips(t, lifecycle("dir/f1"))
	rpcs, callbacks := r.trips(t, lifecycle("dir/f2"))
	t.Logf("lifecycle: %d RPCs + %d callbacks", rpcs, callbacks)
	if rpcs+callbacks > 17 {
		t.Errorf("one file lifecycle cost %d RPCs + %d callbacks = %d round trips, want at most 17", rpcs, callbacks, rpcs+callbacks)
	}
}
