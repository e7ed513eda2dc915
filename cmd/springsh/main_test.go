package main

import (
	"strings"
	"testing"

	"springfs"
	"springfs/internal/stats"
)

// drive runs a scripted session against a fresh node.
func drive(t *testing.T, lines ...string) *shell {
	t.Helper()
	sh := &shell{springfs.NewNode("test"), map[string]*springfs.SFS{}}
	t.Cleanup(sh.Stop)
	for _, line := range lines {
		if quit := sh.execute(line); quit {
			t.Fatalf("command %q quit the shell", line)
		}
	}
	return sh
}

func TestScriptedSession(t *testing.T) {
	node := drive(t,
		"newsfs sfs0a",
		"stack compfs_creator comp fs/sfs0a",
		"write comp/hello.txt hello stacked world",
		"mkdir fs/sfs0a/dir",
		"ls",
		"ls comp",
		"cat comp/hello.txt",
		"stat comp/hello.txt",
		"creators",
		"sync comp",
		"rm comp/hello.txt",
		"help",
		"bogus-command",
	)
	// The stack is live: the layer is bound and the file removed.
	if _, err := node.Root().Resolve("comp", springfs.Root); err != nil {
		t.Errorf("layer not bound: %v", err)
	}
	if _, err := node.Root().Resolve("comp/hello.txt", springfs.Root); err == nil {
		t.Error("removed file still resolves")
	}
}

func TestQuit(t *testing.T) {
	sh := &shell{springfs.NewNode("test"), map[string]*springfs.SFS{}}
	defer sh.Stop()
	if !sh.execute("quit") {
		t.Error("quit did not quit")
	}
	if !sh.execute("exit") {
		t.Error("exit did not quit")
	}
}

func TestSplitPath(t *testing.T) {
	tests := []struct {
		in       string
		fs, rest string
	}{
		{"fs/sfs0a/file", "fs/sfs0a", "file"},
		{"fs/sfs0a/dir/file", "fs/sfs0a", "dir/file"},
		{"comp/file", "comp", "file"},
		{"file", "", "file"},
	}
	for _, tt := range tests {
		fs, rest := splitPath(tt.in)
		if fs != tt.fs || rest != tt.rest {
			t.Errorf("splitPath(%q) = (%q, %q), want (%q, %q)", tt.in, fs, rest, tt.fs, tt.rest)
		}
	}
}

func TestCryptStackGetsDefaultPassphrase(t *testing.T) {
	node := drive(t,
		"newsfs sfs0a",
		"stack cryptfs_creator sealed fs/sfs0a",
		"write sealed/secret top secret content",
		"cat sealed/secret",
	)
	got, err := springfs.ReadFile(mustFS(t, node, "sealed"), "secret")
	if err != nil || string(got) != "top secret content" {
		t.Errorf("crypt round trip = %q, %v", got, err)
	}
	// The base layer holds ciphertext.
	raw, err := springfs.ReadFile(mustFS(t, node, "fs/sfs0a"), "secret")
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) == "top secret content" {
		t.Error("plaintext below the encryption layer")
	}
}

func mustFS(t *testing.T, sh *shell, path string) springfs.StackableFS {
	t.Helper()
	fs, err := resolveFS(sh.Node, path)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestWatchCommand(t *testing.T) {
	node := drive(t,
		"newsfs sfs0a",
		"write fs/sfs0a/guarded important data",
		"watch fs/sfs0a/guarded readonly",
	)
	obj, err := node.Root().Resolve("fs/sfs0a/guarded", springfs.Root)
	if err != nil {
		t.Fatal(err)
	}
	f := obj.(springfs.File)
	if _, err := f.WriteAt([]byte("tamper"), 0); err == nil {
		t.Error("write through watchdog succeeded")
	}
	got := make([]byte, 14)
	if _, err := f.ReadAt(got, 0); err != nil && err.Error() != "EOF" {
		t.Fatal(err)
	}
	if string(got) != "important data" {
		t.Errorf("read = %q", got)
	}
}

func TestStatsShowWriteBackCounters(t *testing.T) {
	// The flush-engine counters are registered eagerly, so `stats` lists
	// them (at zero) even before any write-back has run.
	drive(t, "newsfs sfs0a", "stats")
	out := stats.Default.String()
	for _, name := range []string{"vmm.flush.extents", "vmm.flush.pages"} {
		if !strings.Contains(out, name) {
			t.Errorf("stats output missing %s:\n%s", name, out)
		}
	}
}

func TestStatsShowJournalCounters(t *testing.T) {
	// The journal counters are registered eagerly, so `stats` lists them
	// even at zero; after a write+sync the transaction counter is hot.
	drive(t, "newsfs sfs0a", "write fs/sfs0a/j.txt journaled", "sync fs/sfs0a", "stats")
	out := stats.Default.String()
	for _, name := range []string{"disk.journal", "disk.journal.txns", "disk.journal.replayed"} {
		if !strings.Contains(out, name) {
			t.Errorf("stats output missing %s:\n%s", name, out)
		}
	}
}

func TestStatsShowDiskLoadCounters(t *testing.T) {
	// The group-commit, allocation-placement, and read-ahead counters are
	// registered eagerly at package init, so `stats` lists them (at zero)
	// even before any batching, allocation, or prefetch has happened.
	drive(t, "newsfs sfs0a", "stats")
	out := stats.Default.String()
	for _, name := range []string{
		"disk.journal.batched",
		"disk.alloc.contig",
		"disk.readahead.hits",
		"disk.readahead.wasted",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("stats output missing %s:\n%s", name, out)
		}
	}
}

func TestStatsShowHitPathCounters(t *testing.T) {
	// The hot-path counters are registered eagerly at package init, so
	// `stats` lists them even before any I/O; after a cached re-read of a
	// file, the hit counter must have moved.
	hits := stats.Default.Counter("vmm.hits")
	before := hits.Value()
	drive(t, "newsfs sfs0a",
		"write fs/sfs0a/hot.txt cached contents",
		"cat fs/sfs0a/hot.txt",
		"cat fs/sfs0a/hot.txt",
		"stats")
	out := stats.Default.String()
	for _, name := range []string{"vmm.hits", "vmm.misses", "vmm.pool.hits", "vmm.lru.sweeps", "vmm.grants", "vmm.grant.pages", "coh.grants"} {
		if !strings.Contains(out, name) {
			t.Errorf("stats output missing %s:\n%s", name, out)
		}
	}
	if hits.Value() == before {
		t.Error("vmm.hits did not move across two cached reads")
	}
}

func TestFsckCommand(t *testing.T) {
	node := drive(t,
		"newsfs sfs0a",
		"write fs/sfs0a/file.txt some contents",
		"fsck sfs0a",
		"fsck sfs0a -repair",
		"fsck nosuch",
		"fsck",
	)
	// The command path above only prints; assert the underlying call is
	// actually clean on a live, healthy file system.
	report, err := node.sfs["sfs0a"].Disk.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean {
		t.Errorf("live fsck not clean:\n%s", report)
	}
}

func TestSnapshotCloneDiffCommands(t *testing.T) {
	node := drive(t,
		"newsfs sfs0a",
		"stack snapfs_creator snap fs/sfs0a",
		"write snap/base.txt shared content",
		"snapshot snap s1",
		"write snap/after.txt written after the freeze",
		"clone snap s1 work",
		"write work/diverged.txt clone-only content",
		"snapshot snap",
		"snapdiff snap s1 current",
		"snapdiff snap s1 work",
		"snapshot snap s1", // duplicate name: prints an error, must not quit
		"clone snap nosuch bad",
		"snapdiff snap nosuch current",
	)
	// The clone is live and bound: it sees the snapshot's file plus its own
	// divergence, but not the post-snapshot write on the main line.
	work := mustFS(t, node, "work")
	if got, err := springfs.ReadFile(work, "base.txt"); err != nil || string(got) != "shared content" {
		t.Errorf("clone read of shared file = %q, %v", got, err)
	}
	if got, err := springfs.ReadFile(work, "diverged.txt"); err != nil || string(got) != "clone-only content" {
		t.Errorf("clone read of diverged file = %q, %v", got, err)
	}
	if _, err := springfs.ReadFile(work, "after.txt"); err == nil {
		t.Error("clone sees a file written to the main line after the snapshot")
	}
	// And the main line still serves both of its files.
	snap := mustFS(t, node, "snap")
	if got, err := springfs.ReadFile(snap, "after.txt"); err != nil || string(got) != "written after the freeze" {
		t.Errorf("main-line read = %q, %v", got, err)
	}
}

func TestStatsShowSnapCounters(t *testing.T) {
	// The snapfs counters are registered eagerly at package init, so
	// `stats` lists them (at zero) even before any snapshot exists.
	drive(t, "newsfs sfs0a", "stats")
	out := stats.Default.String()
	for _, name := range []string{
		"snap.snapshots",
		"snap.clones",
		"snap.cow.blocks",
		"snap.manifest.commits",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("stats output missing %s:\n%s", name, out)
		}
	}
}

func TestStatsShowDFSFailureCounters(t *testing.T) {
	// The failure counters are registered eagerly, so `stats` lists them
	// (at zero) even before any timeout or retry has happened.
	drive(t, "newsfs sfs0a", "stats")
	out := stats.Default.String()
	for _, name := range []string{"dfs.retry", "dfs.timeout"} {
		if !strings.Contains(out, name) {
			t.Errorf("stats output missing %s:\n%s", name, out)
		}
	}
}

func TestScriptedStripeSession(t *testing.T) {
	node := drive(t,
		"newsfs meta",
		"newsfs data0",
		"newsfs data1",
		"newsfs data2",
		"stack stripefs_creator wide fs/meta fs/data0 fs/data1 fs/data2 stripe_size=131072",
		"write wide/hello.txt hello striped world",
		"cat wide/hello.txt",
		"stripe wide",
		"stripe fs/meta", // not a striping layer: prints the error, keeps going
	)
	fs := mustFS(t, node, "wide")
	got, err := springfs.ReadFile(fs, "hello.txt")
	if err != nil || string(got) != "hello striped world" {
		t.Errorf("striped read = %q, %v", got, err)
	}
	obj, err := node.Root().Resolve("wide", springfs.Root)
	if err != nil {
		t.Fatal(err)
	}
	striped, ok := obj.(interface{ StripeStatus() springfs.StripeStatus })
	if !ok {
		t.Fatal("wide does not expose StripeStatus")
	}
	st := striped.StripeStatus()
	if st.StripeSize != 131072 {
		t.Errorf("stripe size = %d, want 131072", st.StripeSize)
	}
	if len(st.Servers) != 3 {
		t.Fatalf("servers = %d, want 3", len(st.Servers))
	}
	for i, srv := range st.Servers {
		if !srv.Healthy {
			t.Errorf("server %d (%s) reports unhealthy", i, srv.Name)
		}
	}
}

func TestStatsShowStripeCounters(t *testing.T) {
	// The stripefs counters are registered eagerly at package init, so
	// `stats` lists them (at zero) even before any striping layer exists.
	drive(t, "newsfs sfs0a", "stats")
	out := stats.Default.String()
	for _, name := range []string{
		"stripe.layout.commits",
		"stripe.objects.created",
		"stripe.fanout.ops",
		"stripe.fanout.calls",
		"stripe.fanout.wide",
		"stripe.degraded",
		"stripe.swept",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("stats output missing %s:\n%s", name, out)
		}
	}
}
