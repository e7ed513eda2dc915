package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// blockSize is the unit the generator and every 4 KiB operation use; it
// equals the VM page and device block size.
const blockSize = 4096

// gen derives every input the program under test sees — file content,
// offsets, names — from the run's seed. The stack only ever receives what
// gen produced, and every byte read back is compared against it.
type gen struct {
	seed int64
	rng  *rand.Rand
}

func newGen(seed int64) *gen {
	return &gen{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// fork returns an independent generator for a second client, so two
// goroutines never share one rng.
func (g *gen) fork(n int64) *gen { return newGen(g.seed*1000003 + n) }

// name returns a seeded file name with the given prefix and ordinal.
func (g *gen) name(prefix string, i int) string {
	return fmt.Sprintf("%s-%04x-%d", prefix, uint16(g.seed), i)
}

// fill writes random bytes into p.
func (g *gen) fill(p []byte) {
	i := 0
	for ; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], g.rng.Uint64())
	}
	for ; i < len(p); i++ {
		p[i] = byte(g.rng.Intn(256))
	}
}

// fillHalfCompressible writes blocks whose first half is random and whose
// second half repeats one seeded byte, so a compressing layer has real
// work with a real gain and an encrypting layer cannot skip anything.
func (g *gen) fillHalfCompressible(p []byte) {
	for off := 0; off < len(p); off += blockSize {
		end := off + blockSize
		if end > len(p) {
			end = len(p)
		}
		blk := p[off:end]
		half := len(blk) / 2
		g.fill(blk[:half])
		b := byte(g.rng.Intn(256))
		for i := half; i < len(blk); i++ {
			blk[i] = b
		}
	}
}

// blockOffset returns a seeded block-aligned offset inside a file of size
// bytes.
func (g *gen) blockOffset(size int64) int64 {
	return g.rng.Int63n(size/blockSize) * blockSize
}

// shadow is the generator's copy of one file's expected content. Writes
// update it, reads are checked against it.
type shadow struct {
	data []byte
}

func newShadow(size int64) *shadow { return &shadow{data: make([]byte, size)} }

// check reports whether p equals the expected content at off.
func (s *shadow) check(p []byte, off int64) bool {
	if off < 0 || off+int64(len(p)) > int64(len(s.data)) {
		return false
	}
	return bytes.Equal(p, s.data[off:off+int64(len(p))])
}

// at returns the expected content of [off, off+n).
func (s *shadow) at(off, n int64) []byte { return s.data[off : off+n] }

// truncate mirrors an ftruncate: shrinking drops the tail, growing reads
// back as zeros.
func (s *shadow) truncate(size int64) {
	if size <= int64(len(s.data)) {
		s.data = s.data[:size]
		return
	}
	s.data = append(s.data, make([]byte, size-int64(len(s.data)))...)
}
