package cfs

import (
	"bytes"
	"io"
	"testing"

	"springfs/internal/blockdev"
	"springfs/internal/coherency"
	"springfs/internal/dfs"
	"springfs/internal/disklayer"
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/netsim"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// rig: home node with SFS + DFS server; remote node with a DFS client and
// CFS.
type rig struct {
	t *testing.T

	homeVMM *vm.VMM
	sfs     *coherency.CohFS
	srv     *dfs.Server

	remoteNode *spring.Node
	remoteVMM  *vm.VMM
	client     *dfs.Client
	cfs        *CFS
}

func newRig(t *testing.T) *rig {
	t.Helper()
	network := netsim.New(netsim.ProfileNone)
	homeNode := spring.NewNode("home")
	t.Cleanup(homeNode.Stop)
	homeVMM := vm.New(spring.NewDomain(homeNode, "vmm"), "home-vmm")
	dev := blockdev.NewMem(2048, blockdev.ProfileNone)
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
	l, err := network.Listen("home:dfs")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)

	remoteNode := spring.NewNode("remote")
	t.Cleanup(remoteNode.Stop)
	remoteVMM := vm.New(spring.NewDomain(remoteNode, "vmm"), "remote-vmm")
	conn, err := network.Dial("home:dfs")
	if err != nil {
		t.Fatal(err)
	}
	client := dfs.NewClient(conn, spring.NewDomain(remoteNode, "dfs-client"), "remote")
	t.Cleanup(func() { client.Close() })
	c := New(spring.NewDomain(remoteNode, "cfs"), remoteVMM, "cfs")
	return &rig{
		t: t, homeVMM: homeVMM, sfs: sfs, srv: srv,
		remoteNode: remoteNode, remoteVMM: remoteVMM, client: client, cfs: c,
	}
}

func TestInterposedReadWriteRoundTrip(t *testing.T) {
	r := newRig(t)
	remote, err := r.client.Create("doc")
	if err != nil {
		t.Fatal(err)
	}
	f := r.cfs.Interpose(remote)
	msg := []byte("cached at the client")
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("read = %q", got)
	}
	// Sync pushes the data home.
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	local, err := r.sfs.Open("doc", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, len(msg))
	if _, err := local.ReadAt(got2, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, msg) {
		t.Errorf("home read = %q", got2)
	}
}

func TestWarmReadsAreLocal(t *testing.T) {
	// With CFS, repeated reads are served from the local VMM cache: no
	// remote calls after the first fault.
	r := newRig(t)
	remote, err := r.client.Create("hot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.WriteAt(make([]byte, vm.PageSize), 0); err != nil {
		t.Fatal(err)
	}
	f := r.cfs.Interpose(remote)
	buf := make([]byte, 512)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	before := r.client.RemoteCalls.Value()
	for i := 0; i < 50; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	if got := r.client.RemoteCalls.Value(); got != before {
		t.Errorf("50 warm reads crossed the wire %d times, want 0", got-before)
	}
}

func TestWarmStatsAreLocal(t *testing.T) {
	r := newRig(t)
	remote, err := r.client.Create("stat")
	if err != nil {
		t.Fatal(err)
	}
	f := r.cfs.Interpose(remote)
	if _, err := f.Stat(); err != nil {
		t.Fatal(err)
	}
	before := r.client.RemoteCalls.Value()
	for i := 0; i < 50; i++ {
		if _, err := f.Stat(); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.client.RemoteCalls.Value(); got != before {
		t.Errorf("50 warm stats crossed the wire %d times, want 0", got-before)
	}
}

func TestHomeWritesInvalidateClientCaches(t *testing.T) {
	r := newRig(t)
	remote, err := r.client.Create("inval")
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.SetLength(vm.PageSize); err != nil {
		t.Fatal(err)
	}
	f := r.cfs.Interpose(remote)
	buf := make([]byte, 16)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	// Home-node write: DFS revokes the client's cached pages.
	local, err := r.sfs.Open("inval", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.WriteAt([]byte("fresh-from-home!"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "fresh-from-home!" {
		t.Errorf("CFS read %q after home write", buf)
	}
}

func TestInterposeIdempotent(t *testing.T) {
	r := newRig(t)
	remote, err := r.client.Create("once")
	if err != nil {
		t.Fatal(err)
	}
	f1 := r.cfs.Interpose(remote)
	f2 := r.cfs.Interpose(remote)
	if f1 != f2 {
		t.Error("double interposition created distinct files")
	}
	if r.cfs.Interpositions.Value() != 1 {
		t.Errorf("interpositions = %d", r.cfs.Interpositions.Value())
	}
}

func TestNamingLevelInterposition(t *testing.T) {
	// Section 5: CFS interposes on remote files when a name resolution
	// passes them to the machine. Stacked on the DFS client, CFS is the
	// machine's view of the remote file system: every file resolved
	// through it is a CFS file, and a directory is a context whose files
	// are interposed on too.
	r := newRig(t)
	if err := New(r.cfs.domain, r.remoteVMM, "local").StackOn(r.sfs); err == nil {
		t.Error("CFS stacked on a local file system")
	}
	if err := r.cfs.StackOn(dfs.NewClientFS(r.client, "remote")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.client.Create("watched"); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Mkdir("dir"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.client.Create("dir/deep"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"watched", "dir/deep"} {
		obj, err := r.cfs.Resolve(name, naming.Root)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := obj.(*cfsFile); !ok {
			t.Errorf("%s resolved to %T, want *cfsFile (interposed)", name, obj)
		}
	}
	dir, err := r.cfs.Resolve("dir", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	ctx, ok := dir.(naming.Context)
	if !ok {
		t.Fatalf("directory resolved to %T, want a context", dir)
	}
	obj, err := ctx.Resolve("deep", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := obj.(*cfsFile); !ok {
		t.Errorf("dir/deep through the directory resolved to %T, want *cfsFile", obj)
	}
	if n := r.cfs.Interpositions.Value(); n != 2 {
		t.Errorf("interpositions = %d, want one per remote file", n)
	}
	// Objects that are not remote files pass through untouched.
	if obj := r.cfs.InterposeObject(42); obj != 42 {
		t.Errorf("plain object = %v", obj)
	}
}

func TestBindForwardingToRemotePager(t *testing.T) {
	// Mapping the interposed file routes the VMM to the remote DFS pager
	// channel: the same connection the plain remote file would use.
	r := newRig(t)
	remote, err := r.client.Create("mapped")
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.SetLength(vm.PageSize); err != nil {
		t.Fatal(err)
	}
	f := r.cfs.Interpose(remote)
	mVia, err := r.remoteVMM.Map(f, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	mDirect, err := r.remoteVMM.Map(remote, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	if mVia.Cache() != mDirect.Cache() {
		t.Error("interposed bind did not forward to the remote file's channel")
	}
}

func TestCFSFileIsAFile(t *testing.T) {
	// Object interposition contract: the substituted object has the same
	// type, so it can be passed wherever the original was expected.
	r := newRig(t)
	remote, err := r.client.Create("typed")
	if err != nil {
		t.Fatal(err)
	}
	f := r.cfs.Interpose(remote)
	var _ fsys.File = f
	if _, ok := spring.Narrow[fsys.File](naming.Object(f)); !ok {
		t.Error("interposed object does not narrow to File")
	}
}
