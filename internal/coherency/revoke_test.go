package coherency

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// callOut is one coherency action a fakeHolder received.
type callOut struct {
	op           string
	offset, size vm.Offset
}

// fakeHolder is a cache manager whose cache object counts the call-outs it
// receives and answers them from a script: the blocks it "holds modified"
// and how it packs them into the reply. It lives in the coherency layer's
// own domain, so the layer invokes it directly.
type fakeHolder struct {
	name   string
	domain *spring.Domain
	pager  vm.PagerObject

	mu    sync.Mutex
	calls []callOut
	dirty map[int64]byte // block → fill byte of its modified copy
	// reply packs the modified blocks of a range; nil means one extent per
	// contiguous run, which is what a VMM returns.
	reply func(blocks []int64, fill map[int64]byte) []vm.Data
	dead  bool // Unreachable(); replies are then empty
}

var (
	_ vm.CacheManager     = (*fakeHolder)(nil)
	_ vm.CacheObject      = (*fakeHolder)(nil)
	_ vm.UnreachableCache = (*fakeHolder)(nil)
)

func (h *fakeHolder) ManagerName() string           { return h.name }
func (h *fakeHolder) ManagerDomain() *spring.Domain { return h.domain }
func (h *fakeHolder) RightsID() uint64              { return 0 }
func (h *fakeHolder) NewConnection(p vm.PagerObject) (vm.CacheObject, vm.CacheRights) {
	h.pager = p
	return h, h
}

func (h *fakeHolder) Unreachable() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dead
}

func block(fill byte) []byte { return bytes.Repeat([]byte{fill}, BlockSize) }

// coalesced packs blocks into one extent per contiguous run.
func coalesced(blocks []int64, fill map[int64]byte) []vm.Data {
	var out []vm.Data
	for i, pn := range blocks {
		if i == 0 || pn != blocks[i-1]+1 {
			out = append(out, vm.Data{Offset: pn * BlockSize})
		}
		last := &out[len(out)-1]
		last.Bytes = append(last.Bytes, block(fill[pn])...)
	}
	return out
}

// perBlock packs each block into an extent of its own.
func perBlock(blocks []int64, fill map[int64]byte) []vm.Data {
	var out []vm.Data
	for _, pn := range blocks {
		out = append(out, vm.Data{Offset: pn * BlockSize, Bytes: block(fill[pn])})
	}
	return out
}

// firstHalf answers for the first half of the range only.
func firstHalf(blocks []int64, fill map[int64]byte) []vm.Data {
	return coalesced(blocks[:len(blocks)/2], fill)
}

func (h *fakeHolder) record(op string, offset, size vm.Offset, take bool) []vm.Data {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.calls = append(h.calls, callOut{op, offset, size})
	if h.dead || !take {
		return nil
	}
	first, last := vm.PageRange(offset, size)
	var blocks []int64
	for pn := range h.dirty {
		if pn >= first && pn <= last {
			blocks = append(blocks, pn)
		}
	}
	slices.Sort(blocks)
	reply := h.reply
	if reply == nil {
		reply = coalesced
	}
	out := reply(blocks, h.dirty)
	for _, pn := range blocks {
		delete(h.dirty, pn)
	}
	return out
}

func (h *fakeHolder) FlushBack(o, s vm.Offset) []vm.Data  { return h.record("flush_back", o, s, true) }
func (h *fakeHolder) DenyWrites(o, s vm.Offset) []vm.Data { return h.record("deny_writes", o, s, true) }
func (h *fakeHolder) WriteBack(o, s vm.Offset) []vm.Data  { return h.record("write_back", o, s, true) }
func (h *fakeHolder) DeleteRange(o, s vm.Offset)          { h.record("delete_range", o, s, false) }
func (h *fakeHolder) ZeroFill(o, s vm.Offset)             { h.record("zero_fill", o, s, false) }
func (h *fakeHolder) DestroyCache()                       { h.record("destroy", 0, 0, false) }
func (h *fakeHolder) Populate(o, s vm.Offset, _ vm.Rights, _ []byte) {
	h.record("populate", o, s, false)
}

// takeCalls returns and clears the recorded call-outs.
func (h *fakeHolder) takeCalls() []callOut {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := h.calls
	h.calls = nil
	return c
}

// writeBlocks makes h the write holder of blocks [first, first+n) by
// data-less grants of at most 64 blocks, and scripts a modified copy of each
// filled with fill.
func (h *fakeHolder) writeBlocks(t *testing.T, first, n int64, fill byte) {
	t.Helper()
	for pn := first; pn < first+n; pn += maxWriteThroughBlocks {
		run := min(first+n-pn, maxWriteThroughBlocks)
		if _, err := h.pager.PageIn(pn*BlockSize, run*BlockSize, vm.RightsWrite|vm.RightsNoData); err != nil {
			t.Fatalf("%s: grant [%d,+%d): %v", h.name, pn, run, err)
		}
	}
	h.mu.Lock()
	for pn := first; pn < first+n; pn++ {
		h.dirty[pn] = fill
	}
	h.mu.Unlock()
}

// revokeRig is an SFS with one file of `blocks` blocks filled with 0x01 on
// disk, cold in the coherency layer.
type revokeRig struct {
	*sfsRig
	file *cohFile
}

func newRevokeRig(t *testing.T, blocks int64) *revokeRig {
	t.Helper()
	r := newSFS(t, true)
	f, err := r.coh.Create("ranged", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{0x01}, int(blocks*BlockSize)), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.coh.DropDataCaches(); err != nil {
		t.Fatal(err)
	}
	return &revokeRig{sfsRig: r, file: f.(*cohFile)}
}

func (r *revokeRig) holder(t *testing.T, name string) *fakeHolder {
	t.Helper()
	h := &fakeHolder{name: name, domain: r.coh.Domain(), dirty: make(map[int64]byte)}
	if _, err := r.file.Bind(h, vm.RightsWrite, 0, 0); err != nil {
		t.Fatal(err)
	}
	if h.pager == nil {
		t.Fatal("bind established no connection")
	}
	return h
}

// lowerBlock reads block pn from the disk layer's file.
func (r *revokeRig) lowerBlock(t *testing.T, pn int64) []byte {
	t.Helper()
	got := make([]byte, BlockSize)
	if _, err := r.file.lower.ReadAt(got, pn*BlockSize); err != nil {
		t.Fatalf("lower read of block %d: %v", pn, err)
	}
	return got
}

func (r *revokeRig) wantLower(t *testing.T, first, n int64, fill byte) {
	t.Helper()
	for pn := first; pn < first+n; pn++ {
		if got := r.lowerBlock(t, pn); !bytes.Equal(got, block(fill)) {
			t.Errorf("block %d below = %#x..., want %#x", pn, got[0], fill)
		}
	}
}

func run(op string, first, n int64) callOut {
	return callOut{op, first * BlockSize, n * BlockSize}
}

// TestRangedFlushCallsOutOncePerHolderRun: an fsync's revocation costs one
// deny_writes per (holder, maximal run of at most maxRevokeBlocks), whatever
// the shape of the holdings, and the data ends up below either way — in
// write-throughs of at most 64 blocks, which no longer bound the call-out.
func TestRangedFlushCallsOutOncePerHolderRun(t *testing.T) {
	t.Run("one writer, 256 contiguous blocks", func(t *testing.T) {
		r := newRevokeRig(t, 256)
		a := r.holder(t, "A")
		a.writeBlocks(t, 0, 256, 0xA0)
		a.takeCalls()
		revoked := r.coh.Revocations.Value()
		if err := r.file.flushAll(); err != nil {
			t.Fatal(err)
		}
		want := []callOut{run("deny_writes", 0, 256)}
		if got := a.takeCalls(); !slices.Equal(got, want) {
			t.Errorf("call-outs = %v, want %v", got, want)
		}
		if got := r.coh.Revocations.Value() - revoked; got != 256 {
			t.Errorf("Revocations moved by %d, want 256 (it counts blocks)", got)
		}
		r.wantLower(t, 0, 256, 0xA0)
		// A second fsync finds readers only: nothing to call out for.
		if err := r.file.flushAll(); err != nil {
			t.Fatal(err)
		}
		if got := a.takeCalls(); len(got) != 0 {
			t.Errorf("fsync with no writer called out: %v", got)
		}
	})

	t.Run("a hole in the middle", func(t *testing.T) {
		r := newRevokeRig(t, 32)
		a := r.holder(t, "A")
		a.writeBlocks(t, 0, 10, 0xA1)
		a.writeBlocks(t, 20, 10, 0xA2)
		a.takeCalls()
		if err := r.file.flushAll(); err != nil {
			t.Fatal(err)
		}
		want := []callOut{run("deny_writes", 0, 10), run("deny_writes", 20, 10)}
		if got := a.takeCalls(); !slices.Equal(got, want) {
			t.Errorf("call-outs = %v, want %v", got, want)
		}
		r.wantLower(t, 0, 10, 0xA1)
		r.wantLower(t, 10, 10, 0x01)
		r.wantLower(t, 20, 10, 0xA2)
	})

	t.Run("two writers interleaved block by block", func(t *testing.T) {
		r := newRevokeRig(t, 8)
		a, b := r.holder(t, "A"), r.holder(t, "B")
		for pn := int64(0); pn < 8; pn += 2 {
			a.writeBlocks(t, pn, 1, 0xA0+byte(pn))
			b.writeBlocks(t, pn+1, 1, 0xB0+byte(pn))
		}
		a.takeCalls()
		b.takeCalls()
		if err := r.file.flushAll(); err != nil {
			t.Fatal(err)
		}
		for i, h := range []*fakeHolder{a, b} {
			var want []callOut
			for pn := int64(i); pn < 8; pn += 2 {
				want = append(want, run("deny_writes", pn, 1))
			}
			if got := h.takeCalls(); !slices.Equal(got, want) {
				t.Errorf("%s: call-outs = %v, want %v", h.name, got, want)
			}
		}
		for pn := int64(0); pn < 8; pn += 2 {
			r.wantLower(t, pn, 1, 0xA0+byte(pn))
			r.wantLower(t, pn+1, 1, 0xB0+byte(pn))
		}
	})

	t.Run("a run that crosses the 64-block cap", func(t *testing.T) {
		r := newRevokeRig(t, 128)
		a := r.holder(t, "A")
		a.writeBlocks(t, 10, 100, 0xA3)
		a.takeCalls()
		if err := r.file.flushAll(); err != nil {
			t.Fatal(err)
		}
		// The 64-block cap is the write-through's: the call-out crosses
		// block 64, inside A's holding, in one piece.
		want := []callOut{run("deny_writes", 10, 100)}
		if got := a.takeCalls(); !slices.Equal(got, want) {
			t.Errorf("call-outs = %v, want %v", got, want)
		}
		r.wantLower(t, 10, 100, 0xA3)
		r.wantLower(t, 0, 10, 0x01)
	})

	t.Run("a run longer than one call-out carries", func(t *testing.T) {
		r := newRevokeRig(t, maxRevokeBlocks+40)
		a := r.holder(t, "A")
		a.writeBlocks(t, 10, maxRevokeBlocks+20, 0xA4)
		a.takeCalls()
		if err := r.file.flushAll(); err != nil {
			t.Fatal(err)
		}
		// Runs are cut from the blocks the layer has state for — here all
		// of the file — so the cap falls at block maxRevokeBlocks.
		want := []callOut{run("deny_writes", 10, maxRevokeBlocks-10), run("deny_writes", maxRevokeBlocks, 30)}
		if got := a.takeCalls(); !slices.Equal(got, want) {
			t.Errorf("call-outs = %v, want %v", got, want)
		}
		r.wantLower(t, 10, maxRevokeBlocks+20, 0xA4)
	})
}

// TestRevokeShortRunAllocatesNothing: the call-out bound is sixteen times the
// write-through's, but a revoke of one block (every page-in) or of one
// write-through's worth still keeps its run on the stack.
func TestRevokeShortRunAllocatesNothing(t *testing.T) {
	r := newRevokeRig(t, maxWriteThroughBlocks)
	a := r.holder(t, "A")
	a.writeBlocks(t, 0, maxWriteThroughBlocks, 0xA5)
	for _, pns := range [][]int64{{7}, blockRange(0, maxWriteThroughBlocks*BlockSize)} {
		if n := testing.AllocsPerRun(100, func() { r.file.revoke(pns, holdOnly, nil, nil) }); n != 0 {
			t.Errorf("revoke of %d blocks allocates %v times", len(pns), n)
		}
	}
}

// TestRangedRevokeAbsorbsAnyReplyShape: the reply to one ranged call-out may
// be one coalesced extent, one extent per block, or cover only part of the
// run; every block a reply covers takes the holder's bytes and every block it
// does not keeps the copy the layer had.
func TestRangedRevokeAbsorbsAnyReplyShape(t *testing.T) {
	for _, tc := range []struct {
		name    string
		reply   func([]int64, map[int64]byte) []vm.Data
		covered int64 // blocks [0, covered) carry the writer's bytes
	}{
		{"one coalesced extent", coalesced, 16},
		{"one extent per block", perBlock, 16},
		{"only the first half of the run", firstHalf, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRevokeRig(t, 16)
			a, reader := r.holder(t, "A"), r.holder(t, "reader")
			// A faults the blocks in for writing, so the layer holds a valid
			// copy of the old bytes behind the writer.
			if _, err := a.pager.PageIn(0, 16*BlockSize, vm.RightsWrite); err != nil {
				t.Fatal(err)
			}
			a.writeBlocks(t, 0, 16, 0xC4)
			a.reply = tc.reply
			a.takeCalls()

			got, err := reader.pager.PageIn(0, 16*BlockSize, vm.RightsRead)
			if err != nil {
				t.Fatal(err)
			}
			if calls, want := a.takeCalls(), []callOut{run("deny_writes", 0, 16)}; !slices.Equal(calls, want) {
				t.Errorf("call-outs = %v, want %v", calls, want)
			}
			for pn := int64(0); pn < 16; pn++ {
				want := byte(0x01)
				if pn < tc.covered {
					want = 0xC4
				}
				if !bytes.Equal(got[pn*BlockSize:(pn+1)*BlockSize], block(want)) {
					t.Errorf("reader got block %d = %#x..., want %#x", pn, got[pn*BlockSize], want)
				}
			}
			if err := r.file.flushAll(); err != nil {
				t.Fatal(err)
			}
			r.wantLower(t, 0, tc.covered, 0xC4)
			r.wantLower(t, tc.covered, 16-tc.covered, 0x01)
		})
	}
}

// TestRangedRevokeLosesOnlyTheDeadHoldersBlocks: one run, two write holders,
// the first unreachable. Its blocks — and only its blocks — are reported
// lost and it is dropped from them; the other holder of the same run is
// settled as usual.
func TestRangedRevokeLosesOnlyTheDeadHoldersBlocks(t *testing.T) {
	r := newRevokeRig(t, 8)
	a, b := r.holder(t, "dead"), r.holder(t, "B")
	a.writeBlocks(t, 0, 4, 0xDD)
	b.writeBlocks(t, 4, 4, 0xBB)
	a.dead = true
	a.takeCalls()
	b.takeCalls()
	lostBefore := r.coh.LostHolders.Value()

	var lost []int64
	r.file.revoke(blockRange(0, 8*BlockSize), denyWrites, nil, func(pn int64, bs *blockState, l bool) {
		if l {
			lost = append(lost, pn)
		}
		switch {
		case pn < 4 && len(bs.holders) != 0:
			t.Errorf("block %d still has holders %v; the dead one should be gone", pn, bs.holders)
		case pn >= 4 && (len(bs.holders) != 1 || bs.hasWriter() || !bs.dirty):
			t.Errorf("block %d: holders=%v dirty=%v, want B read-only and its bytes absorbed", pn, bs.holders, bs.dirty)
		}
	})
	if want := []int64{0, 1, 2, 3}; !slices.Equal(lost, want) {
		t.Errorf("lost blocks = %v, want %v", lost, want)
	}
	if got := r.coh.LostHolders.Value() - lostBefore; got != 4 {
		t.Errorf("LostHolders moved by %d, want 4", got)
	}
	if got, want := a.takeCalls(), []callOut{run("deny_writes", 0, 4)}; !slices.Equal(got, want) {
		t.Errorf("dead holder: call-outs = %v, want %v", got, want)
	}
	if got, want := b.takeCalls(), []callOut{run("deny_writes", 4, 4)}; !slices.Equal(got, want) {
		t.Errorf("B: call-outs = %v, want %v", got, want)
	}

	// A page-in over the run surfaces the loss once; the retry proceeds.
	a2 := r.holder(t, "dead2")
	a2.writeBlocks(t, 0, 2, 0xEE)
	a2.dead = true
	reader := r.holder(t, "reader")
	if _, err := reader.pager.PageIn(0, 8*BlockSize, vm.RightsRead); !errors.Is(err, ErrHolderUnreachable) {
		t.Fatalf("page-in over a dead writer = %v, want ErrHolderUnreachable", err)
	}
	got, err := reader.pager.PageIn(0, 8*BlockSize, vm.RightsRead)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if !bytes.Equal(got[4*BlockSize:5*BlockSize], block(0xBB)) {
		t.Errorf("retry read block 4 = %#x..., want B's bytes", got[4*BlockSize])
	}
}

// TestRangedWriteGrantRevokesPerHolderRun: a write fault over a range
// flushes the writer back and deletes the readers, one call each per run.
func TestRangedWriteGrantRevokesPerHolderRun(t *testing.T) {
	r := newRevokeRig(t, 16)
	w, rd, taker := r.holder(t, "writer"), r.holder(t, "reader"), r.holder(t, "taker")
	w.writeBlocks(t, 0, 8, 0x77)
	if _, err := rd.pager.PageIn(8*BlockSize, 8*BlockSize, vm.RightsRead); err != nil {
		t.Fatal(err)
	}
	w.takeCalls()
	rd.takeCalls()
	taker.writeBlocks(t, 0, 16, 0x99)
	if got, want := w.takeCalls(), []callOut{run("flush_back", 0, 8)}; !slices.Equal(got, want) {
		t.Errorf("writer: call-outs = %v, want %v", got, want)
	}
	if got, want := rd.takeCalls(), []callOut{run("delete_range", 8, 8)}; !slices.Equal(got, want) {
		t.Errorf("reader: call-outs = %v, want %v", got, want)
	}
	// The lower layer's own purge goes up as one ranged delete too.
	lc := &lowerCacheObject{f: r.file}
	lc.DeleteRange(0, 16*BlockSize)
	if got, want := taker.takeCalls(), []callOut{run("delete_range", 0, 16)}; !slices.Equal(got, want) {
		t.Errorf("taker: call-outs = %v, want %v", got, want)
	}
}

// TestRangedRevokeStress races ranged flushAll and dropAll against write
// grants, page-ins and page-outs from two connections over overlapping
// ranges. It must finish (the watchdog turns a deadlock into a failure with
// every goroutine's stack) and lose no write: a block only one connection
// wrote holds that connection's last value, and a block both wrote is whole.
func TestRangedRevokeStress(t *testing.T) {
	const (
		blocks  = 128
		overlap = 32 // A writes [0, 80), B writes [48, 128)
		rounds  = 150
	)
	r := newRevokeRig(t, blocks)
	type writer struct {
		m        *vm.Mapping
		lo, hi   int64
		lastFill [blocks]byte
	}
	var ws [2]*writer
	for i := range ws {
		vmm := vm.New(spring.NewDomain(r.node, fmt.Sprintf("stress-vmm%d", i)), "stress-vmm")
		vmm.SetMaxPages(48) // force page-outs by eviction
		m, err := vmm.Map(r.file, vm.RightsWrite)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = &writer{m: m}
	}
	ws[0].lo, ws[0].hi = 0, blocks/2+overlap/2
	ws[1].lo, ws[1].hi = blocks/2-overlap/2, blocks

	done := make(chan struct{})
	stop := make(chan struct{})
	var wg, bg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *writer) {
			defer wg.Done()
			buf := make([]byte, 24*BlockSize)
			for n := 0; n < rounds; n++ {
				// Whole-block writes of 1..24 blocks (write grants), every
				// block of one write filled with one byte.
				first := w.lo + int64(n*7)%(w.hi-w.lo)
				count := min(int64(n%24)+1, w.hi-first)
				fill := byte(0x10*(i+1)) + byte(n%15) + 1
				p := buf[:count*BlockSize]
				for j := range p {
					p[j] = fill
				}
				if _, err := w.m.WriteAt(p, first*BlockSize); err != nil {
					t.Errorf("writer %d: %v", i, err)
					return
				}
				for pn := first; pn < first+count; pn++ {
					w.lastFill[pn] = fill
				}
				// Read a window somewhere else (page-ins, read-ahead runs).
				at := (first + 40) % (blocks - 8)
				if _, err := w.m.ReadAt(buf[:8*BlockSize], at*BlockSize); err != nil {
					t.Errorf("reader %d: %v", i, err)
					return
				}
				if n%10 == 9 {
					if err := w.m.Sync(); err != nil {
						t.Errorf("sync %d: %v", i, err)
						return
					}
				}
			}
		}(i, w)
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if n%4 == 3 {
				err = r.file.dropAll()
			} else {
				err = r.file.flushAll()
			}
			if err != nil {
				t.Errorf("background flush: %v", err)
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(stop)
		bg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		panic("ranged revocation deadlocked") // prints every goroutine
	}
	if t.Failed() {
		return
	}

	for _, w := range ws {
		if err := w.m.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.file.Sync(); err != nil {
		t.Fatal(err)
	}
	for pn := int64(0); pn < blocks; pn++ {
		got := r.lowerBlock(t, pn)
		if !bytes.Equal(got, block(got[0])) {
			t.Errorf("block %d is torn", pn)
			continue
		}
		a, b := ws[0].lastFill[pn], ws[1].lastFill[pn]
		switch {
		case a == 0 && b == 0:
			if got[0] != 0x01 {
				t.Errorf("block %d nobody wrote = %#x", pn, got[0])
			}
		case a != 0 && b != 0:
			if got[0] != a && got[0] != b {
				t.Errorf("block %d = %#x, want A's %#x or B's %#x", pn, got[0], a, b)
			}
		case got[0] != a+b:
			t.Errorf("block %d = %#x, want its only writer's last value %#x: a write was lost", pn, got[0], a+b)
		}
	}
}
