package dfs

import (
	"fmt"
	"sync"
	"testing"

	"springfs/internal/fsys"
	"springfs/internal/naming"
)

// TestHomeAndRemoteAppendersShareOneOrder: a home-node appender (through
// the server's local view of the file) races a remote one (OpAppend, served
// against the lower file). Both end at the lower file's Appender, so every
// record lands whole on a range of its own.
func TestHomeAndRemoteAppendersShareOneOrder(t *testing.T) {
	r := newRig(t)
	home, err := r.srv.Create("log", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	remote := r.newRemote("remote1")
	rf, err := remote.client.Open("log")
	if err != nil {
		t.Fatal(err)
	}
	const (
		perSide = 4
		records = perSide * 64
	)
	record := func(who string, seq int) string { return fmt.Sprintf("%s:%04d\n", who, seq) }
	recLen := len(record("home", 0))

	var wg sync.WaitGroup
	for who, f := range map[string]fsys.File{"home": home, "rmte": rf} {
		for g := 0; g < perSide; g++ {
			wg.Add(1)
			go func(who string, f fsys.File, g int) {
				defer wg.Done()
				for seq := g; seq < records; seq += perSide {
					if _, n, err := fsys.Append(f, []byte(record(who, seq))); err != nil || n != recLen {
						t.Errorf("%s append %d: %d, %v", who, seq, n, err)
						return
					}
				}
			}(who, f, g)
		}
	}
	wg.Wait()

	got := make([]byte, 2*records*recLen+1)
	n, _ := home.ReadAt(got, 0)
	if n != 2*records*recLen {
		t.Fatalf("file is %d bytes, want %d: appends overlapped", n, 2*records*recLen)
	}
	seen := make(map[string]bool)
	for i := 0; i < n; i += recLen {
		seen[string(got[i:i+recLen])] = true
	}
	for _, who := range []string{"home", "rmte"} {
		for seq := 0; seq < records; seq++ {
			if !seen[record(who, seq)] {
				t.Errorf("record %q lost or torn", record(who, seq))
			}
		}
	}
}
