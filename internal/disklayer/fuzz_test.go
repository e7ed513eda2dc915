package disklayer

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"testing"

	"springfs/internal/blockdev"
	"springfs/internal/naming"
)

// fuzzRingBlocks is the ring size of the image FuzzScanRing scribbles on.
const (
	fuzzDevBlocks  = 128
	fuzzRingBlocks = 16
)

// crashedRing returns the ring bytes of an image cut down mid-workload at
// write index cut: real commit blocks, record runs, and a torn tail — the
// seed corpus.
func crashedRing(t testing.TB, cut int64) []byte {
	inner := blockdev.NewMem(fuzzDevBlocks, blockdev.ProfileNone)
	if err := Mkfs(inner, MkfsOptions{JournalBlocks: fuzzRingBlocks}); err != nil {
		t.Fatal(err)
	}
	crash := blockdev.NewCrash(inner, cut)
	crash.SetTorn(true)
	crash.SetReorder(true)
	r := newGroupRig(t, crash)
	crash.CrashAfterN(cut)
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("s%d", i)
		f, err := r.Create(name, naming.Root)
		if err != nil {
			break
		}
		if _, err := f.WriteAt(crashPattern(name, 3000), 0); err != nil || f.Sync() != nil {
			break
		}
		if i%2 == 1 && r.Remove(name, naming.Root) != nil {
			break
		}
	}
	_ = crash.PowerCut()
	crash.Restart()
	ring := make([]byte, fuzzRingBlocks*BlockSize)
	if err := readRun(crash, journalBase, ring); err != nil {
		t.Fatal(err)
	}
	return ring
}

// resealCommits recomputes the CRC of everything in ring that looks like a
// commit block, so that mutated headers and home lists reach the
// validation behind the checksum instead of dying on it.
func resealCommits(ring []byte) {
	be := binary.BigEndian
	blocks := int64(len(ring) / BlockSize)
	for idx := int64(0); idx < blocks; idx++ {
		cb := ring[idx*BlockSize : (idx+1)*BlockSize]
		if be.Uint64(cb[0:]) != journalMagic {
			continue
		}
		n, start, ringR := int64(be.Uint64(cb[16:])), int64(be.Uint64(cb[32:])), int64(be.Uint64(cb[40:]))
		if n < 1 || n > maxJournalRecords || start < 0 || ringR < 2 || ringR > blocks {
			continue
		}
		h := crc64.New(crcTable)
		h.Write(cb[8:56])
		h.Write(cb[commitHdrSize : commitHdrSize+8*n])
		for i := int64(0); i < n; i++ {
			at := (start + i) % ringR
			h.Write(ring[at*BlockSize : (at+1)*BlockSize])
		}
		be.PutUint64(cb[56:], h.Sum64())
	}
}

// forgedRing is a ring no crash can produce but a scanner must survive: a
// checksummed commit inside the real ring whose "superblock" record is
// garbage, and beyond the ring's end a second, newer commit that claims a
// 20-block ring. Replaying the first would tear the superblock down, and
// the next scan — no longer bounded by it — would find and replay the
// second: replay would not be idempotent.
func forgedRing() []byte {
	ring := make([]byte, 20*BlockSize)
	be := binary.BigEndian
	commit := func(idx, seq, start, ringR, home int64) {
		cb := ring[idx*BlockSize:]
		be.PutUint64(cb[0:], journalMagic)
		be.PutUint64(cb[8:], uint64(seq))
		be.PutUint64(cb[16:], 1)
		be.PutUint64(cb[24:], uint64(seq))
		be.PutUint64(cb[32:], uint64(start))
		be.PutUint64(cb[40:], uint64(ringR))
		be.PutUint64(cb[commitHdrSize:], uint64(home))
	}
	copy(ring, "not a superblock")
	commit(1, 100, 0, fuzzRingBlocks, 0)
	copy(ring[17*BlockSize:], "lands on block 100")
	commit(18, 200, 17, 20, 100)
	return ring
}

// FuzzScanRing: whatever bytes sit on the ring — a crashed image's, torn,
// mutated, with or without a superblock to bound the scan — scanRing must
// not panic and must never yield a commit whose homes fall inside the ring
// or past the device, and replaying them must be idempotent.
func FuzzScanRing(f *testing.F) {
	for _, cut := range []int64{9, 23, 40, 57, 1000} {
		f.Add(crashedRing(f, cut), true, false)
		f.Add(crashedRing(f, cut), false, true)
	}
	f.Add([]byte{}, true, true)
	f.Add(forgedRing(), true, true)
	f.Fuzz(func(t *testing.T, ring []byte, trustSuperblock, reseal bool) {
		dev := blockdev.NewMem(fuzzDevBlocks, blockdev.ProfileNone)
		if err := Mkfs(dev, MkfsOptions{JournalBlocks: fuzzRingBlocks}); err != nil {
			t.Fatal(err)
		}
		if !trustSuperblock {
			// A torn superblock: the scan falls back on the commit blocks
			// describing themselves, over as much of the device as a ring
			// could cover.
			if err := dev.WriteBlock(0, make([]byte, BlockSize)); err != nil {
				t.Fatal(err)
			}
		}
		img := make([]byte, (fuzzDevBlocks-journalBase)*BlockSize)
		if err := readRun(dev, journalBase, img); err != nil {
			t.Fatal(err)
		}
		copy(img, ring)
		if reseal {
			resealCommits(img)
		}
		if err := writeRun(dev, journalBase, img); err != nil {
			t.Fatal(err)
		}

		for _, ringBlocks := range []int64{fuzzRingBlocks, 0} {
			cands, maxSeq, err := scanRing(dev, ringBlocks)
			if err != nil {
				t.Fatal(err)
			}
			if maxSeq != 0 && cands[maxSeq] == nil {
				t.Fatalf("maxSeq %d names no commit", maxSeq)
			}
			for seq, c := range cands {
				if c.seq != seq || c.tailSeq == 0 || c.tailSeq > seq || len(c.homes) != len(c.records) {
					t.Fatalf("malformed commit %+v under key %d", c, seq)
				}
				for _, home := range c.homes {
					if home != 0 && home < journalBase+c.ring || home >= fuzzDevBlocks {
						t.Fatalf("commit %d homes to block %d: inside its %d-block ring or past the device", seq, home, c.ring)
					}
				}
			}
		}

		if _, err := replayJournal(dev); err != nil {
			t.Fatal(err)
		}
		first := deviceImage(t, dev)
		again, err := replayJournal(dev)
		if err != nil {
			t.Fatal(err)
		}
		if again || !bytes.Equal(deviceImage(t, dev), first) {
			t.Fatal("replay is not idempotent: a second pass changed the image")
		}
	})
}
