package dfs_test

import (
	"bytes"
	"maps"
	"strings"
	"testing"

	"springfs"
	"springfs/internal/dfs"
	"springfs/internal/naming"
	"springfs/internal/stats"
	"springfs/internal/unixapi"
	"springfs/internal/vm"
)

// Round-trip counts of the Figure 9 path — unixapi → CFS → DFS client →
// netsim → DFS server → SFS — on a network with no delay: counts, never
// time. What a call costs on a 2 ms link is these numbers times the link.

// countRig is a home node exporting an SFS and one client machine with CFS.
type countRig struct {
	srv    *dfs.Server // also the home node's own view of the files
	client *dfs.Client
	proc   *unixapi.Process
}

func newCountRig(t *testing.T) *countRig {
	t.Helper()
	network := springfs.NewNetwork(springfs.LANInstant)
	build := func(name string, spec springfs.Spec) *springfs.Built {
		node := springfs.NewNode(name)
		t.Cleanup(node.Stop)
		node.Join(network)
		b, err := node.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	address := map[string]string{"address": "home:dfs"}
	home := build("home", springfs.Spec{
		Disks:  []springfs.DiskSpec{{Name: "sfs"}},
		Layers: []springfs.LayerSpec{{Name: "dfs", Creator: "dfs_creator", On: []string{"sfs"}, Config: address}},
	})
	machine := build("client", springfs.Spec{Layers: []springfs.LayerSpec{
		{Name: "dfsc", Creator: "dfs_client_creator", Config: address},
		{Name: "cfs", Creator: "cfs_creator", On: []string{"dfsc"}},
	}})
	return &countRig{
		srv:    home.FS["dfs"].(*dfs.Server),
		client: machine.FS["dfsc"].(*dfs.ClientFS).Client(),
		proc:   unixapi.NewProcess(machine.Top, naming.Root),
	}
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

// calls runs fn and returns the round trips it cost per protocol op — the
// client's requests and the home node's callbacks — from the dfs.<op>
// histograms every round trip records.
func (r *countRig) calls(t *testing.T, fn func() error) map[string]int64 {
	t.Helper()
	count := func() map[string]int64 {
		m := make(map[string]int64)
		for name, h := range stats.Default.Histograms() {
			if op, ok := strings.CutPrefix(name, "dfs."); ok {
				m[op] = h.Count()
			}
		}
		return m
	}
	before := count()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	for op, n := range count() {
		if n > before[op] {
			out[op] = n - before[op]
		}
	}
	return out
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
// lookup alone, and so is an open+close beside the standing descriptor.
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
	if rpcs != 1 || callbacks != 0 {
		t.Errorf("open+close cost %d RPCs and %d callbacks, want 1 and 0", rpcs, callbacks)
	}
}

// TestOpenRoundTrips: the machine holds one claim on a file for all its
// descriptors, so an open+close is the lookup alone while another descriptor
// on the machine stands, and lookup, retain and release when none does. A
// lookup of a directory says so in its one round trip.
func TestOpenRoundTrips(t *testing.T) {
	r := newCountRig(t)
	r.homeFile(t, "f", 4096, 0x44)
	if err := r.proc.Mkdir("d"); err != nil {
		t.Fatal(err)
	}
	openClose := func() error {
		fd, err := r.proc.Open("f", unixapi.O_RDONLY)
		if err != nil {
			return err
		}
		return r.proc.Close(fd)
	}
	if got, want := r.calls(t, openClose), map[string]int64{"lookup": 1, "retain": 1, "release": 1}; !maps.Equal(got, want) {
		t.Errorf("a lone open+close cost %v, want %v", got, want)
	}
	if _, err := r.proc.Open("f", unixapi.O_RDONLY); err != nil {
		t.Fatal(err)
	}
	if got, want := r.calls(t, openClose), map[string]int64{"lookup": 1}; !maps.Equal(got, want) {
		t.Errorf("an open+close beside a standing descriptor cost %v, want %v", got, want)
	}
	got := r.calls(t, func() error {
		st, err := r.proc.Stat("d")
		if err == nil && !st.IsDir {
			t.Error("stat of a directory says it is not one")
		}
		return err
	})
	if want := map[string]int64{"lookup": 1}; !maps.Equal(got, want) {
		t.Errorf("stat of a directory cost %v, want %v", got, want)
	}
}

// TestCreatRoundTrips: creat of a new name is the lookup that misses, the
// create and the retain — no probe for a directory, no truncation of the
// file it just made and so no refetch of the attributes the create returned.
func TestCreatRoundTrips(t *testing.T) {
	r := newCountRig(t)
	got := r.calls(t, func() error {
		_, err := r.proc.Creat("new")
		return err
	})
	if want := map[string]int64{"lookup": 1, "create": 1, "retain": 1}; !maps.Equal(got, want) {
		t.Errorf("creat of a new file cost %v, want %v", got, want)
	}
}

// TestLifecycleRoundTrips: creat → pwrite 2 KiB → fsync → close → stat →
// rename → unlink, the benchmark's file lifecycle, in at most 13 round trips
// (it was 14 RPCs and 6 callbacks, then 14 and 3).
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
	if rpcs+callbacks > 13 {
		t.Errorf("one file lifecycle cost %d RPCs + %d callbacks = %d round trips, want at most 13", rpcs, callbacks, rpcs+callbacks)
	}
}
