package dfs

import (
	"bytes"
	"strings"
	"testing"

	"springfs/internal/naming"
	"springfs/internal/vm"
)

// TestGrantColdOverwriteIsOneEmptyPageIn: a remote client overwriting 16
// cold pages whole pays one OpPageIn round trip that carries the write
// grant and no data, instead of one data-carrying page-in per page.
func TestGrantColdOverwriteIsOneEmptyPageIn(t *testing.T) {
	r := newRig(t)
	const pages = 16
	home, err := r.srv.Create("cold", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := home.WriteAt(bytes.Repeat([]byte{0x11}, pages*vm.PageSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := home.Sync(); err != nil {
		t.Fatal(err)
	}
	remote := r.newRemote("remote1")
	rf, err := remote.client.Open("cold")
	if err != nil {
		t.Fatal(err)
	}
	m, err := remote.vmm.Map(rf, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}

	fresh := bytes.Repeat([]byte{0xA7}, pages*vm.PageSize)
	calls, lowerIns := remote.client.RemoteCalls.Value(), r.sfs.LowerPageIns.Value()
	if _, err := m.WriteAt(fresh, 0); err != nil {
		t.Fatal(err)
	}
	if got := remote.client.RemoteCalls.Value() - calls; got != 1 {
		t.Errorf("cold 64 KiB overwrite made %d RPCs, want 1", got)
	}
	if got := remote.vmm.PageIns.Value(); got != 0 {
		t.Errorf("the client VMM counted %d data page-ins; the reply should have been empty", got)
	}
	if got := r.sfs.LowerPageIns.Value() - lowerIns; got != 0 {
		t.Errorf("the home node read %d blocks it was about to be sent", got)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	check := make([]byte, len(fresh))
	if _, err := home.ReadAt(check, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(check, fresh) {
		t.Error("home node does not see the client's bytes after sync")
	}

	// The wire request itself: empty reply when well-formed; refused when
	// the range is not whole pages or exceeds what one write-back frame
	// could return, since the server walks it block by block.
	pager := m.Cache().Pager()
	noData := vm.RightsWrite | vm.RightsNoData
	if data, err := pager.PageIn(0, pages*vm.PageSize, noData); err != nil || len(data) != 0 {
		t.Errorf("no-data page-in = %d bytes, %v; want empty", len(data), err)
	}
	for _, bad := range []struct{ off, size vm.Offset }{
		{100, vm.PageSize},
		{0, vm.PageSize + 1},
		{0, 0},
		{0, maxPageOutPayload + vm.PageSize},
	} {
		if _, err := pager.PageIn(bad.off, bad.size, noData); err == nil || !strings.Contains(err.Error(), "protocol error") {
			t.Errorf("no-data page-in over [%d,+%d) = %v, want a protocol error", bad.off, bad.size, err)
		}
	}
}
