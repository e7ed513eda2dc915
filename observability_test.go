package springfs

import (
	"strings"
	"testing"

	"springfs/internal/stats"
)

// lowerLayerPrefixes name every span that can only originate below the
// coherency layer: the disk layer, the modelled device, VM paging traffic,
// and the coherency layer's own lower-layer callouts.
var lowerLayerPrefixes = []string{
	"disk.", "blockdev.", "dfs.",
	"vmm.page_in", "vmm.page_out",
	"coh.page_in", "coh.write_through",
}

// TestFigure9RemoteReadTrace reproduces the paper's Figure 9 remote-access
// path — DFS wire hop into a COMPFS/coherency/disk stack — and renders the
// span tree. Run with -v to regenerate the capture embedded in
// docs/OBSERVABILITY.md:
//
//	go test -run Figure9 -v .
func TestFigure9RemoteReadTrace(t *testing.T) {
	network := NewNetwork(LAN)
	_, sb := joinAndBuild(t, network, "server", exportSpec("server:dfs", LayerSpec{Name: "comp", Creator: "compfs_creator", On: []string{"sfs0a"}}))
	sfs, comp := sb.Disks["sfs0a"], sb.FS["comp"]

	content := []byte(strings.Repeat("figure nine remote read ", 256))
	if err := WriteFile(comp, "paper.txt", content); err != nil {
		t.Fatal(err)
	}
	if err := comp.SyncFS(); err != nil {
		t.Fatal(err)
	}

	_, cb := joinAndBuild(t, network, "client", clientSpec("server:dfs", false))
	rf, err := cb.Top.Open("paper.txt", Root)
	if err != nil {
		t.Fatal(err)
	}

	// Drop the server-side block cache so the traced read walks the whole
	// stack down to the modelled device, as in the paper's cold case.
	if err := sfs.Coherency.DropDataCaches(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	spans := stats.Trace.Capture(func() {
		if _, err := rf.ReadAt(buf, 0); err != nil {
			t.Error(err)
		}
	})

	want := []string{"dfs.", "compfs.", "coh.", "disk.", "blockdev."}
	for _, prefix := range want {
		found := false
		for _, s := range spans {
			if strings.HasPrefix(s.Name, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("remote read trace has no %s* span", prefix)
		}
	}
	t.Logf("Figure 9 remote read (%d spans):\n%s", len(spans), stats.RenderTrace(spans))
}

// TestCachedReadRecordsNoLowerLayerSpans is the structural claim behind
// Table 2's cached-read row, checked through the trace surface rather than
// counters: once a block is cached by the coherency layer, a read records
// its own coh.read span and nothing from any layer below it.
func TestCachedReadRecordsNoLowerLayerSpans(t *testing.T) {
	node := NewNode("test")
	defer node.Stop()
	sfs := buildSFS(t, node, DiskSpec{Name: "sfs0a"})
	content := []byte(strings.Repeat("cached ", 512))
	if err := WriteFile(sfs.Coherency, "hot.txt", content); err != nil {
		t.Fatal(err)
	}
	f, err := sfs.Coherency.Open("hot.txt", Root)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(content))
	if _, err := f.ReadAt(buf, 0); err != nil { // warm the block cache
		t.Fatal(err)
	}

	spans := stats.Trace.Capture(func() {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Error(err)
		}
	})
	var sawRead bool
	for _, s := range spans {
		if s.Name == "coh.read" {
			sawRead = true
		}
		for _, p := range lowerLayerPrefixes {
			if strings.HasPrefix(s.Name, p) {
				t.Errorf("cached read recorded below-coherency span %s (%v)", s.Name, s.Duration)
			}
		}
	}
	if !sawRead {
		t.Error("cached read recorded no coh.read span; tracing is not wired into the read path")
	}

	// Contrast: after dropping the data caches the same read must page the
	// block back in, and the trace shows the full path to the device.
	if err := sfs.Coherency.DropDataCaches(); err != nil {
		t.Fatal(err)
	}
	spans = stats.Trace.Capture(func() {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Error(err)
		}
	})
	var sawPageIn, sawDisk bool
	for _, s := range spans {
		switch {
		case s.Name == "coh.page_in":
			sawPageIn = true
		case strings.HasPrefix(s.Name, "disk."):
			sawDisk = true
		}
	}
	if !sawPageIn || !sawDisk {
		names := make([]string, len(spans))
		for i, s := range spans {
			names[i] = s.Name
		}
		t.Errorf("uncached read spans = %v, want coh.page_in and disk.* present", names)
	}
}
