package coherency

import (
	"math"

	"springfs/internal/fsys"
	"springfs/internal/vm"
)

// lowerCacheObject is the fs_cache object the coherency layer exports to
// the layer *below* it. Through this object the lower layer performs
// coherency actions against the data this layer (and transitively, the
// caches above it) holds. This is what makes coherent stacks composable
// (Section 6.3): if the lower layer is itself a coherency layer, its
// revocations propagate up through here to every cache above.
//
// Every revocation bumps the affected blocks' epochs so that fetches in
// flight at the lower layer discard their grants and retry (see the
// package comment).
type lowerCacheObject struct {
	f *cohFile
}

var _ fsys.FsCacheObject = (*lowerCacheObject)(nil)

// blockNumbers lists, ascending, the blocks this layer has state for in the
// range.
func (c *lowerCacheObject) blockNumbers(offset, size vm.Offset) []int64 {
	return c.f.blockNumbers(vm.PageRange(offset, size))
}

// FlushBack implements vm.CacheObject: remove the range from this layer
// (and everything above it), returning modified blocks.
func (c *lowerCacheObject) FlushBack(offset, size vm.Offset) []vm.Data {
	var out []vm.Data
	c.f.revoke(c.blockNumbers(offset, size), flushBack, nil, func(pn int64, b *blockState, _ bool) {
		b.epoch++
		out = b.takeDirty(pn, out)
		b.discard()
	})
	return out
}

// DenyWrites implements vm.CacheObject: downgrade writers above, return
// modified blocks, retain data read-only.
func (c *lowerCacheObject) DenyWrites(offset, size vm.Offset) []vm.Data {
	var out []vm.Data
	c.f.revoke(c.blockNumbers(offset, size), denyWrites, nil, func(pn int64, b *blockState, _ bool) {
		b.epoch++
		out = b.takeDirty(pn, out)
	})
	return out
}

// WriteBack implements vm.CacheObject: return modified blocks, keep
// everything cached here in the same mode. Modified data held by writers
// above is pulled in by denying their writes.
func (c *lowerCacheObject) WriteBack(offset, size vm.Offset) []vm.Data {
	var out []vm.Data
	c.f.revoke(c.blockNumbers(offset, size), denyWrites, nil, func(pn int64, b *blockState, _ bool) {
		out = b.takeDirty(pn, out)
	})
	return out
}

// DeleteRange implements vm.CacheObject: drop the range everywhere above;
// nothing is returned.
func (c *lowerCacheObject) DeleteRange(offset, size vm.Offset) {
	c.f.revoke(c.blockNumbers(offset, size), deleteRange, nil, func(_ int64, b *blockState, _ bool) {
		b.epoch++
		b.discard()
	})
}

// ZeroFill implements vm.CacheObject: the lower layer declares the range
// zero-filled. The caches above drop it and refetch the zeros from here.
func (c *lowerCacheObject) ZeroFill(offset, size vm.Offset) {
	c.f.revoke(blockRange(offset, size), deleteRange, nil, func(_ int64, b *blockState, _ bool) {
		b.epoch++
		b.data, b.valid, b.dirty = make([]byte, BlockSize), true, false
		b.version++
	})
}

// Populate implements vm.CacheObject: the lower layer pushes fresh data.
func (c *lowerCacheObject) Populate(offset, size vm.Offset, access vm.Rights, data []byte) {
	first := offset / BlockSize
	c.f.revoke(blockRange(offset, size), deleteRange, nil, func(pn int64, b *blockState, _ bool) {
		b.epoch++
		if b.data == nil {
			b.data = make([]byte, BlockSize)
		}
		n := copy(b.data, data[(pn-first)*BlockSize:])
		clear(b.data[n:])
		b.valid, b.dirty = true, false
		b.version++
	})
}

// DestroyCache implements vm.CacheObject.
func (c *lowerCacheObject) DestroyCache() {
	c.f.revoke(c.f.blockNumbers(0, math.MaxInt64), holdOnly, nil, func(_ int64, b *blockState, _ bool) {
		b.epoch++
		for h := range b.holders {
			h.Cache.DestroyCache()
			delete(b.holders, h)
		}
		b.discard()
	})
}

// FlushAttributes implements fsys.FsCacheObject.
func (c *lowerCacheObject) FlushAttributes() (fsys.Attributes, bool) {
	return c.f.attrs.Flush()
}

// PopulateAttributes implements fsys.FsCacheObject.
func (c *lowerCacheObject) PopulateAttributes(attrs fsys.Attributes) {
	c.f.attrs.Set(attrs)
}

// InvalidateAttributes implements fsys.FsCacheObject.
func (c *lowerCacheObject) InvalidateAttributes() {
	c.f.attrs.Invalidate()
}
