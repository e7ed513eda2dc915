package mirrorfs

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"springfs/internal/blockdev"
	"springfs/internal/coherency"
	"springfs/internal/disklayer"
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// rig is the Figure 3 fs4 setup: a mirroring layer over two SFS instances
// on two disks.
type rig struct {
	node   *spring.Node
	dev1   *blockdev.MemDevice
	dev2   *blockdev.MemDevice
	sfs1   *coherency.CohFS
	sfs2   *coherency.CohFS
	mirror *MirrorFS
	vmm    *vm.VMM
}

func newSFS(t *testing.T, node *spring.Node, vmm *vm.VMM, name string) (*coherency.CohFS, *blockdev.MemDevice) {
	t.Helper()
	dev := blockdev.NewMem(1024, blockdev.ProfileNone)
	if err := disklayer.Mkfs(dev, disklayer.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	domain := spring.NewDomain(node, name)
	disk, err := disklayer.Mount(dev, domain, vmm, name+"-disk")
	if err != nil {
		t.Fatal(err)
	}
	coh := coherency.New(domain, vmm, name)
	if err := coh.StackOn(disk); err != nil {
		t.Fatal(err)
	}
	return coh, dev
}

func newRig(t *testing.T) *rig {
	t.Helper()
	node := spring.NewNode("n")
	t.Cleanup(node.Stop)
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	sfs1, dev1 := newSFS(t, node, vmm, "sfs1")
	sfs2, dev2 := newSFS(t, node, vmm, "sfs2")
	m := New(spring.NewDomain(node, "mirror"), "mirror")
	if err := m.StackOn(sfs1); err != nil {
		t.Fatal(err)
	}
	if err := m.StackOn(sfs2); err != nil {
		t.Fatal(err)
	}
	return &rig{node: node, dev1: dev1, dev2: dev2, sfs1: sfs1, sfs2: sfs2, mirror: m, vmm: vmm}
}

func TestWritesReachBothReplicas(t *testing.T) {
	r := newRig(t)
	f, err := r.mirror.Create("doc", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("replicated twice")
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatal(err)
	}
	for i, sfs := range []*coherency.CohFS{r.sfs1, r.sfs2} {
		rf, err := sfs.Open("doc", naming.Root)
		if err != nil {
			t.Fatalf("replica %d open: %v", i+1, err)
		}
		got := make([]byte, len(msg))
		if _, err := rf.ReadAt(got, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("replica %d = %q", i+1, got)
		}
	}
}

// TestDirectoriesStayInsideTheMirror: a file reached through a directory
// the layer handed out is the mirrored file, so a write through it lands
// on both replicas (the primary's raw context would write to the primary
// alone), and listings at every level carry mirrored files too.
func TestDirectoriesStayInsideTheMirror(t *testing.T) {
	r := newRig(t)
	created, err := r.mirror.CreateContext("d", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.mirror.Create("d/f", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := r.mirror.Resolve("d", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	for route, ctx := range map[string]naming.Context{"created": created, "resolved": resolved.(naming.Context)} {
		obj, err := ctx.Resolve("f", naming.Root)
		if err != nil {
			t.Fatalf("%s context: %v", route, err)
		}
		if obj != naming.Object(full) {
			t.Fatalf("%s context: f is %T, not the mirrored file d/f resolves to", route, obj)
		}
		msg := []byte("via the " + route + " context")
		if _, err := obj.(fsys.File).WriteAt(msg, 0); err != nil {
			t.Fatal(err)
		}
		for i, sfs := range []*coherency.CohFS{r.sfs1, r.sfs2} {
			rf, err := sfs.Open("d/f", naming.Root)
			if err != nil {
				t.Fatalf("replica %d open: %v", i+1, err)
			}
			got := make([]byte, len(msg))
			if _, err := rf.ReadAt(got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("%s context: replica %d holds %q, want %q", route, i+1, got, msg)
			}
		}
		bs, err := ctx.List(naming.Root)
		if err != nil || len(bs) != 1 || bs[0].Name != "f" || bs[0].Object != naming.Object(full) {
			t.Errorf("%s context: List = %v, %v; want the one mirrored file f", route, bs, err)
		}
	}
	bs, err := r.mirror.List(naming.Root)
	if err != nil || len(bs) != 1 || bs[0].Name != "d" {
		t.Fatalf("root List = %v, %v", bs, err)
	}
	if obj, err := bs[0].Object.(naming.Context).Resolve("f", naming.Root); err != nil || obj != naming.Object(full) {
		t.Errorf("directory from the root listing resolves f to %T, %v", obj, err)
	}
	if err := created.Unbind("f", naming.Root); err != nil {
		t.Fatal(err)
	}
	for i, sfs := range []*coherency.CohFS{r.sfs1, r.sfs2} {
		if _, err := sfs.Open("d/f", naming.Root); err == nil {
			t.Errorf("replica %d still has d/f after Unbind through the directory", i+1)
		}
	}
}

func TestFailoverOnPrimaryLoss(t *testing.T) {
	r := newRig(t)
	f, err := r.mirror.Create("survivor", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("still readable")
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.mirror.SyncFS(); err != nil {
		t.Fatal(err)
	}
	// Build a fresh mirror stack over the same replicas with cold caches
	// (the warm coherency layer would otherwise hide the device failure),
	// then kill the primary disk. Reads must fail over to the mirror.
	m2 := New(spring.NewDomain(r.node, "mirror2"), "mirror2")
	vmm2 := vm.New(spring.NewDomain(r.node, "vmm2"), "vmm2")
	sfs1b, err := disklayerRemountCold(t, r, vmm2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.StackOn(sfs1b); err != nil {
		t.Fatal(err)
	}
	if err := m2.StackOn(r.sfs2); err != nil {
		t.Fatal(err)
	}
	r.dev1.FailReads(true)
	defer r.dev1.FailReads(false)
	f2, err := m2.Open("survivor", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := f2.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatalf("read with dead primary: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("failover read = %q", got)
	}
	if m2.Failovers.Value() == 0 {
		t.Error("no failovers recorded")
	}
}

// disklayerRemountCold mounts a fresh SFS over r.dev1 with empty caches.
func disklayerRemountCold(t *testing.T, r *rig, vmm *vm.VMM) (fsys.StackableFS, error) {
	t.Helper()
	domain := spring.NewDomain(r.node, "sfs1-cold")
	disk, err := disklayer.Mount(r.dev1, domain, vmm, "sfs1-cold")
	if err != nil {
		return nil, err
	}
	coh := coherency.New(domain, vmm, "sfs1-cold")
	if err := coh.StackOn(disk); err != nil {
		return nil, err
	}
	return coh, nil
}

func TestDegradedWrites(t *testing.T) {
	r := newRig(t)
	f, err := r.mirror.Create("degraded", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("ok"), 0); err != nil {
		t.Fatal(err)
	}
	// Make replica 2's device fail; writes continue in degraded mode
	// because write-behind caching absorbs them — force the failure to
	// surface by syncing.
	r.dev2.FailWrites(true)
	defer r.dev2.FailWrites(false)
	if _, err := f.WriteAt([]byte("still fine"), 0); err != nil {
		t.Errorf("degraded write failed: %v", err)
	}
}

func TestStackOnLimit(t *testing.T) {
	r := newRig(t)
	third := New(spring.NewDomain(r.node, "x"), "x")
	if err := r.mirror.StackOn(third); err != fsys.ErrAlreadyStacked {
		t.Errorf("third StackOn error = %v, want ErrAlreadyStacked", err)
	}
}

func TestNotFullyStacked(t *testing.T) {
	node := spring.NewNode("n")
	defer node.Stop()
	m := New(spring.NewDomain(node, "m"), "m")
	if _, err := m.Create("f", naming.Root); err == nil {
		t.Error("create with one replica succeeded")
	}
}

func TestMappedAccess(t *testing.T) {
	r := newRig(t)
	f, err := r.mirror.Create("mapped", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, vm.PageSize), 0); err != nil {
		t.Fatal(err)
	}
	m, err := r.vmm.Map(f, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteAt([]byte("via map"), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	// Both replicas got the mapped write.
	for i, sfs := range []*coherency.CohFS{r.sfs1, r.sfs2} {
		rf, err := sfs.Open("mapped", naming.Root)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 7)
		if _, err := rf.ReadAt(got, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if string(got) != "via map" {
			t.Errorf("replica %d mapped write = %q", i+1, got)
		}
	}
}

func TestRemoveFromBoth(t *testing.T) {
	r := newRig(t)
	if _, err := r.mirror.Create("gone", naming.Root); err != nil {
		t.Fatal(err)
	}
	if err := r.mirror.Remove("gone", naming.Root); err != nil {
		t.Fatal(err)
	}
	if _, err := r.sfs1.Open("gone", naming.Root); err == nil {
		t.Error("replica 1 still has the file")
	}
	if _, err := r.sfs2.Open("gone", naming.Root); err == nil {
		t.Error("replica 2 still has the file")
	}
}

func TestStatAndLength(t *testing.T) {
	r := newRig(t)
	f, err := r.mirror.Create("meta", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	attrs, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if attrs.Length != 100 {
		t.Errorf("length = %d", attrs.Length)
	}
	if err := f.SetLength(50); err != nil {
		t.Fatal(err)
	}
	if l, _ := f.GetLength(); l != 50 {
		t.Errorf("after truncate length = %d", l)
	}
	// Truncation hit both replicas.
	for i, sfs := range []*coherency.CohFS{r.sfs1, r.sfs2} {
		rf, err := sfs.Open("meta", naming.Root)
		if err != nil {
			t.Fatal(err)
		}
		if l, _ := rf.GetLength(); l != 50 {
			t.Errorf("replica %d length = %d", i+1, l)
		}
	}
}

// flakyFS wraps a replica and can be tripped to fail every operation with
// a transport-style unavailable error, simulating a replica reached over a
// dead DFS link (calls time out and surface fsys.ErrUnavailable).
type flakyFS struct {
	fsys.StackableFS
	down  atomic.Bool
	calls atomic.Int64 // file-system-level calls received, up or down
}

func (f *flakyFS) errIfDown() error {
	f.calls.Add(1)
	if f.down.Load() {
		return fmt.Errorf("flaky: link down (%w)", fsys.ErrUnavailable)
	}
	return nil
}

func (f *flakyFS) Remove(name string, cred naming.Credentials) error {
	if err := f.errIfDown(); err != nil {
		return err
	}
	return f.StackableFS.Remove(name, cred)
}

func (f *flakyFS) Rename(oldname, newname string, cred naming.Credentials) error {
	if err := f.errIfDown(); err != nil {
		return err
	}
	return f.StackableFS.Rename(oldname, newname, cred)
}

func (f *flakyFS) SyncFS() error {
	if err := f.errIfDown(); err != nil {
		return err
	}
	return f.StackableFS.SyncFS()
}

func (f *flakyFS) CreateContext(name string, cred naming.Credentials) (naming.Context, error) {
	if err := f.errIfDown(); err != nil {
		return nil, err
	}
	return f.StackableFS.CreateContext(name, cred)
}

func (f *flakyFS) List(cred naming.Credentials) ([]naming.Binding, error) {
	if err := f.errIfDown(); err != nil {
		return nil, err
	}
	return f.StackableFS.List(cred)
}

func (f *flakyFS) Create(name string, cred naming.Credentials) (fsys.File, error) {
	if err := f.errIfDown(); err != nil {
		return nil, err
	}
	inner, err := f.StackableFS.Create(name, cred)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: inner, fs: f}, nil
}

func (f *flakyFS) Open(name string, cred naming.Credentials) (fsys.File, error) {
	obj, err := f.Resolve(name, cred)
	if err != nil {
		return nil, err
	}
	return fsys.AsFile(obj)
}

func (f *flakyFS) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	if err := f.errIfDown(); err != nil {
		return nil, err
	}
	obj, err := f.StackableFS.Resolve(name, cred)
	if err != nil {
		return nil, err
	}
	if file, ok := obj.(fsys.File); ok {
		return &flakyFile{File: file, fs: f}, nil
	}
	return obj, nil
}

// flakyFile fails data operations while the link is down.
type flakyFile struct {
	fsys.File
	fs *flakyFS
}

func (f *flakyFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.errIfDown(); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

func (f *flakyFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.fs.errIfDown(); err != nil {
		return 0, err
	}
	return f.File.WriteAt(p, off)
}

func (f *flakyFile) Stat() (fsys.Attributes, error) {
	if err := f.fs.errIfDown(); err != nil {
		return fsys.Attributes{}, err
	}
	return f.File.Stat()
}

func (f *flakyFile) Sync() error {
	if err := f.fs.errIfDown(); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *flakyFile) SetLength(l vm.Offset) error {
	if err := f.fs.errIfDown(); err != nil {
		return err
	}
	return f.File.SetLength(l)
}

// Retain/Release forward to the wrapped file so unlink-while-open holds
// storage through the flaky wrapper, like a real DFS proxy does.
func (f *flakyFile) Retain() { fsys.Retain(f.File) }

func (f *flakyFile) Release() error { return fsys.Release(f.File) }

// TestReplicaDegradationAndResync exercises the mirror health state
// machine: a replica whose calls fail at the transport level is dropped
// from the fan-out (writes keep succeeding, degraded), and Resync copies
// the survivor's tree back onto the healed replica and restores full
// mirroring.
func TestReplicaDegradationAndResync(t *testing.T) {
	node := spring.NewNode("n")
	t.Cleanup(node.Stop)
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	sfs1, _ := newSFS(t, node, vmm, "m1")
	sfs2, _ := newSFS(t, node, vmm, "m2")
	flaky := &flakyFS{StackableFS: sfs2}
	m := New(spring.NewDomain(node, "mirror"), "mirror")
	if err := m.StackOn(sfs1); err != nil {
		t.Fatal(err)
	}
	if err := m.StackOn(flaky); err != nil {
		t.Fatal(err)
	}

	f, err := m.Create("doc", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("seed data....."), 0); err != nil {
		t.Fatal(err)
	}

	// The mirror link dies. The first write pays the failure once, marks
	// the replica unhealthy, and still succeeds on the survivor.
	flaky.down.Store(true)
	if _, err := f.WriteAt([]byte("degraded-one.."), 0); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	if p, q := m.Health(); !p || q {
		t.Errorf("health after failure = (%v, %v), want (true, false)", p, q)
	}
	if m.Degraded.Value() == 0 {
		t.Error("no degraded writes recorded")
	}
	// Later writes skip the dead replica outright.
	if _, err := f.WriteAt([]byte("degraded-two.."), 0); err != nil {
		t.Fatalf("second degraded write: %v", err)
	}

	// Heal the link and resync: the replica catches up and rejoins.
	flaky.down.Store(false)
	if err := m.Resync(naming.Root); err != nil {
		t.Fatalf("resync: %v", err)
	}
	if p, q := m.Health(); !p || !q {
		t.Errorf("health after resync = (%v, %v), want (true, true)", p, q)
	}
	if m.Resyncs.Value() == 0 {
		t.Error("no resync recorded")
	}
	// The healed replica has the writes it missed.
	rf, err := sfs2.Open("doc", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 14)
	if _, err := rf.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(got) != "degraded-two.." {
		t.Errorf("healed replica = %q, want %q", got, "degraded-two..")
	}
	// New writes fan out to both replicas again.
	if _, err := f.WriteAt([]byte("mirrored-again"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := rf.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(got) != "mirrored-again" {
		t.Errorf("replica after resync write = %q, want %q", got, "mirrored-again")
	}
}

// TestResyncReconcilesRetainedOrphans is the regression for the
// unlink-while-open split-brain: a file removed while a retained handle is
// outstanding keeps its storage (nlink 0), but the name-based resync copy
// cannot see it. After a replica drop, unlink, heal, and resync, reads and
// writes through the retained handle must keep working even when the
// survivor subsequently drops out of the fan-out.
func TestResyncReconcilesRetainedOrphans(t *testing.T) {
	node := spring.NewNode("n-orph")
	t.Cleanup(node.Stop)
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	sfs1, _ := newSFS(t, node, vmm, "o1")
	sfs2, _ := newSFS(t, node, vmm, "o2")
	flaky := &flakyFS{StackableFS: sfs2}
	m := New(spring.NewDomain(node, "mirror"), "mirror")
	if err := m.StackOn(sfs1); err != nil {
		t.Fatal(err)
	}
	if err := m.StackOn(flaky); err != nil {
		t.Fatal(err)
	}

	f, err := m.Create("doomed", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("orphan payload"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	fsys.Retain(f) // an open descriptor holds the file

	// The mirror drops out, and the file is unlinked while still open:
	// the primary keeps nlink-0 storage behind the handle, the mirror
	// never sees the removal.
	flaky.down.Store(true)
	m.MarkUnhealthy(1)
	if err := m.Remove("doomed", naming.Root); err != nil {
		t.Fatalf("remove while degraded: %v", err)
	}

	// Heal and resync. The tree copy has no name for the orphan; the
	// reconciliation path must rebuild it on the healed replica.
	flaky.down.Store(false)
	if err := m.Resync(naming.Root); err != nil {
		t.Fatalf("resync with retained orphan: %v", err)
	}
	// The stale mirror-side name must not resurrect the file.
	if _, err := m.Resolve("doomed", naming.Root); err == nil {
		t.Error("unlinked file resolvable after resync (resurrected from stale replica)")
	}

	// Now lose the PRIMARY: the retained handle must be served entirely
	// by the rebuilt orphan on the healed replica.
	m.MarkUnhealthy(0)
	got := make([]byte, 14)
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatalf("read through retained handle after failover: %v", err)
	}
	if string(got) != "orphan payload" {
		t.Errorf("retained handle read %q, want %q (split-brain)", got, "orphan payload")
	}
	if _, err := f.WriteAt([]byte("STILL"), 0); err != nil {
		t.Fatalf("write through retained handle after failover: %v", err)
	}
	if err := fsys.Release(f); err != nil {
		t.Fatal(err)
	}
}

// TestResyncFailsLoudlyWithoutSurvivorHandle: when a retained orphan has no
// usable handle on the surviving replica, resync must fail rather than
// silently rejoin a replica that cannot serve the retained handles.
func TestResyncFailsLoudlyWithoutSurvivorHandle(t *testing.T) {
	node := spring.NewNode("n-orph2")
	t.Cleanup(node.Stop)
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	sfs1, _ := newSFS(t, node, vmm, "p1")
	sfs2, _ := newSFS(t, node, vmm, "p2")
	flaky := &flakyFS{StackableFS: sfs2}
	m := New(spring.NewDomain(node, "mirror"), "mirror")
	if err := m.StackOn(sfs1); err != nil {
		t.Fatal(err)
	}
	if err := m.StackOn(flaky); err != nil {
		t.Fatal(err)
	}

	f, err := m.Create("ghost", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	fsys.Retain(f)
	if err := m.Remove("ghost", naming.Root); err != nil {
		t.Fatalf("remove: %v", err)
	}
	// Simulate the survivor's handle being gone (e.g. the orphan was
	// created during an earlier outage and never existed on the primary).
	mf := f.(*mirrorFile)
	_, q := mf.copies()
	mf.setCopies(nil, q)
	m.MarkUnhealthy(1)
	if err := m.Resync(naming.Root); err == nil {
		t.Error("resync succeeded with an unreconstructible retained orphan")
	}
	if p, hm := m.Health(); !p || hm {
		t.Errorf("health after failed resync = (%v, %v), want (true, false)", p, hm)
	}
	_ = fsys.Release(f)
}

// TestNamespaceOpsHonourReplicaHealth: name-space operations treat a
// replica like data operations do. One that is out of the fan-out is not
// called at all; one that fails at the transport level is dropped; the
// operation succeeds, degraded, on the survivor — whichever replica that
// is — and Resync reconciles the name space afterwards.
func TestNamespaceOpsHonourReplicaHealth(t *testing.T) {
	for _, dead := range []int{1, 0} {
		t.Run(fmt.Sprintf("replica%d", dead), func(t *testing.T) {
			node := spring.NewNode("n-ns")
			t.Cleanup(node.Stop)
			vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
			sfs1, _ := newSFS(t, node, vmm, "p1")
			sfs2, _ := newSFS(t, node, vmm, "p2")
			replicas := []*flakyFS{{StackableFS: sfs1}, {StackableFS: sfs2}}
			m := New(spring.NewDomain(node, "mirror"), "mirror")
			for _, r := range replicas {
				if err := m.StackOn(r); err != nil {
					t.Fatal(err)
				}
			}
			flaky := replicas[dead]
			for _, name := range []string{"gone", "old", "stays"} {
				f, err := m.Create(name, naming.Root)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt([]byte(name), 0); err != nil {
					t.Fatal(err)
				}
			}

			// The link dies; the first name-space call pays the failure
			// once, drops the replica, and still succeeds on the survivor.
			flaky.down.Store(true)
			degraded := m.Degraded.Value()
			if err := m.SyncFS(); err != nil {
				t.Fatalf("SyncFS with replica %d dead: %v", dead, err)
			}
			if p, q := m.Health(); [2]bool{p, q}[dead] || ![2]bool{p, q}[1-dead] {
				t.Fatalf("health after dead SyncFS = (%v, %v)", p, q)
			}
			if m.Degraded.Value() == degraded {
				t.Error("degraded SyncFS not counted")
			}

			// From here on the dead replica must not see a single call.
			before := flaky.calls.Load()
			for i := 0; i < 10; i++ {
				if _, err := m.Open("stays", naming.Root); err != nil {
					t.Fatalf("degraded Open: %v", err)
				}
			}
			if err := m.Remove("gone", naming.Root); err != nil {
				t.Errorf("degraded Remove: %v", err)
			}
			if err := m.Rename("old", "new", naming.Root); err != nil {
				t.Errorf("degraded Rename: %v", err)
			}
			if _, err := m.CreateContext("dir", naming.Root); err != nil {
				t.Errorf("degraded CreateContext: %v", err)
			}
			if _, err := m.Create("dir/born", naming.Root); err != nil {
				t.Errorf("degraded Create in new directory: %v", err)
			}
			if err := m.SyncFS(); err != nil {
				t.Errorf("degraded SyncFS: %v", err)
			}
			bindings, err := m.List(naming.Root)
			if err != nil {
				t.Fatalf("degraded List: %v", err)
			}
			var names []string
			for _, b := range bindings {
				names = append(names, b.Name)
			}
			sort.Strings(names)
			if want := []string{"dir", "new", "stays"}; !reflect.DeepEqual(names, want) {
				t.Errorf("degraded listing = %v, want %v", names, want)
			}
			if n := flaky.calls.Load() - before; n != 0 {
				t.Errorf("%d calls reached the replica that is out of the fan-out", n)
			}

			// Heal and resync: both replicas hold the same name space.
			flaky.down.Store(false)
			if err := m.Resync(naming.Root); err != nil {
				t.Fatalf("Resync: %v", err)
			}
			for i, r := range []fsys.StackableFS{sfs1, sfs2} {
				for _, name := range []string{"new", "stays", "dir/born"} {
					if _, err := r.Open(name, naming.Root); err != nil {
						t.Errorf("replica %d lacks %s after resync: %v", i, name, err)
					}
				}
				for _, name := range []string{"gone", "old"} {
					if _, err := r.Open(name, naming.Root); err == nil {
						t.Errorf("replica %d still has %s after resync", i, name)
					}
				}
			}
		})
	}
}

// TestHotPathsAddNoAllocation guards the per-call paths the layer kit sits
// on: resolving a file whose wrapper exists is the two replica lookups plus
// a handle-table hit, a read or write is the replicas' own plus a health
// check that is an atomic load — and the layer's share of each allocates
// nothing.
func TestHotPathsAddNoAllocation(t *testing.T) {
	node := spring.NewNode("n-alloc")
	t.Cleanup(node.Stop)
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	sfs1, _ := newSFS(t, node, vmm, "p1")
	sfs2, _ := newSFS(t, node, vmm, "p2")
	m := New(spring.NewDomain(node, "mirror"), "mirror")
	for _, r := range []fsys.StackableFS{sfs1, sfs2} {
		if err := m.StackOn(r); err != nil {
			t.Fatal(err)
		}
	}
	f, err := m.Create("file", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, vm.PageSize)
	if _, err := f.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	p, q := f.(*mirrorFile).copies()
	allocs := func(fn func()) float64 { return testing.AllocsPerRun(200, fn) }
	for _, c := range []struct {
		what         string
		lower, layer float64
	}{
		{"Resolve",
			allocs(func() { _, _ = sfs1.Resolve("file", naming.Root); _, _ = sfs2.Resolve("file", naming.Root) }),
			allocs(func() { _, _ = m.Resolve("file", naming.Root) })},
		{"Open",
			allocs(func() { _, _ = sfs1.Open("file", naming.Root); _, _ = sfs2.Open("file", naming.Root) }),
			allocs(func() { _, _ = m.Open("file", naming.Root) })},
		{"ReadAt",
			allocs(func() { _, _ = p.ReadAt(buf, 0) }),
			allocs(func() { _, _ = f.ReadAt(buf, 0) })},
		{"WriteAt",
			allocs(func() { _, _ = p.WriteAt(buf, 0); _, _ = q.WriteAt(buf, 0) }),
			allocs(func() { _, _ = f.WriteAt(buf, 0) })},
	} {
		if c.layer > c.lower {
			t.Errorf("%s: %.0f allocations per call, the replicas' own calls make %.0f; the layer must add none",
				c.what, c.layer, c.lower)
		}
	}
}
