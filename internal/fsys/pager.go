package fsys

import (
	"fmt"
	"sync"

	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// PagedFile is the file of a layer that pages its own files (Section 4.2):
// its pages differ from the pages below it, so binds end at the layer and
// the layer moves the page data itself. Its SetLength is its FilePager's.
type PagedFile interface {
	File
	// Resize sets the length in the layer's own store, after the pager
	// has kept the shrink rule. No page-out is in flight while it runs.
	Resize(length vm.Offset) error
	// MoveIn returns the pages of the page-aligned range [offset,
	// offset+size).
	MoveIn(offset, size vm.Offset) ([]byte, error)
	// MoveOut stores data at offset. The pager has cut it at the file's
	// length, so it may end mid-page and never reaches past the end.
	MoveOut(offset vm.Offset, data []byte) error
}

// FilePager is the pager half of a layer that pages its own files. The
// layer's file embeds one (made by ConnectionTable.NewPager) and gets Bind,
// SetLength and WrapForChannel from it; the layer's movers and Resize stay
// its own. It keeps two rules for every such layer:
//   - end of file: a page-out never changes the file's length and stores
//     nothing at or past it, so data a holder kept past a truncation cannot
//     come back. The length is read and the page-out made under cut, which
//     Resize waits for, so no truncation lands between the two;
//   - shrink: before the layer cuts its store, each bound holder gives back
//     the page straddling the new end and drops its pages from there on
//     (Shrink).
type FilePager struct {
	table   *ConnectionTable
	backing uint64
	file    PagedFile
	// cut is read-held by each page-out from reading the length to storing
	// the pages, and write-held by SetLength around Resize.
	cut sync.RWMutex
	// syncAfterOut makes the pager's Sync also sync the file, for layers
	// whose page-out leaves metadata (a block table) to be made durable.
	syncAfterOut bool
}

// NewPager returns the pager of file, under a backing of its own in t.
func (t *ConnectionTable) NewPager(file PagedFile, syncAfterOut bool) FilePager {
	return FilePager{table: t, backing: t.nextBacking.Add(1), file: file, syncAfterOut: syncAfterOut}
}

// Backing identifies the file in the layer's connection table.
func (p *FilePager) Backing() uint64 { return p.backing }

// Bind implements vm.MemoryObject: every holder of the file binds to the
// layer.
func (p *FilePager) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	rights, _, _ := p.table.Bind(caller, p.backing, func() vm.PagerObject { return (*pagerObject)(p) })
	return rights, nil
}

// SetLength implements vm.MemoryObject: the shrink rule, then the layer's
// Resize.
func (p *FilePager) SetLength(length vm.Offset) error {
	if err := p.Shrink(length); err != nil {
		return err
	}
	p.cut.Lock()
	defer p.cut.Unlock()
	return p.file.Resize(length)
}

// WrapForChannel implements naming.ProxyWrappable.
func (p *FilePager) WrapForChannel(ch *spring.Channel) naming.Object {
	return NewFileProxy(ch, p.file)
}

// Shrink keeps the shrink rule; the caller holds no lock of the layer's.
// When a holder is bound and length cuts the file, each holder flushes
// back the page straddling the new end, whose bytes below the end are
// stored as a page-out stores them, and drops its pages from that page on;
// only then may the layer cut its store. With no holder bound it makes no
// call at all.
func (p *FilePager) Shrink(length vm.Offset) error {
	conns := p.table.ConnectionsFor(p.backing)
	if len(conns) == 0 {
		return nil
	}
	cur, err := p.file.GetLength()
	if err != nil || length >= cur {
		return err
	}
	page := length / vm.PageSize * vm.PageSize
	for _, c := range conns {
		if length > page {
			for _, d := range c.Cache.FlushBack(page, vm.PageSize) {
				lo, hi := max(d.Offset, page), min(d.Offset+vm.Offset(len(d.Bytes)), length)
				if lo >= hi {
					continue
				}
				if err := p.file.MoveOut(lo, d.Bytes[lo-d.Offset:hi-d.Offset]); err != nil {
					return err
				}
			}
		}
		c.Cache.DeleteRange(page, 1<<62)
	}
	return nil
}

// moveOut stores data at offset through the layer's MoveOut, cut at the
// length it reads; a truncation waits until the bytes have landed.
func (p *FilePager) moveOut(offset vm.Offset, data []byte) error {
	p.cut.RLock()
	defer p.cut.RUnlock()
	length, err := p.file.GetLength()
	if err != nil || offset >= length {
		return err
	}
	return p.file.MoveOut(offset, data[:min(vm.Offset(len(data)), length-offset)])
}

// pagerObject is the fs_pager a FilePager hands to each holder.
type pagerObject FilePager

var _ FsPagerObject = (*pagerObject)(nil)

// PageIn implements vm.PagerObject.
func (p *pagerObject) PageIn(offset, size vm.Offset, access vm.Rights) ([]byte, error) {
	if !vm.PageAligned(offset, size) {
		return nil, vm.ErrUnaligned
	}
	if access.NoData() {
		// A write grant without the data: the pager keeps no per-holder
		// state, so the blocks about to be replaced whole are neither read
		// below nor decoded.
		return nil, nil
	}
	return p.file.MoveIn(offset, size)
}

// PageOut implements vm.PagerObject, keeping the end-of-file rule.
func (p *pagerObject) PageOut(offset, size vm.Offset, data []byte) error {
	if !vm.PageAligned(offset, size) {
		return vm.ErrUnaligned
	}
	if int64(len(data)) < size {
		return fmt.Errorf("fsys: page-out of %d bytes carries only %d", size, len(data))
	}
	return (*FilePager)(p).moveOut(offset, data[:size])
}

// WriteOut implements vm.PagerObject. The pager keeps no per-holder state,
// so what the caller retains makes no difference to it.
func (p *pagerObject) WriteOut(offset, size vm.Offset, data []byte) error {
	return p.PageOut(offset, size, data)
}

// Sync implements vm.PagerObject.
func (p *pagerObject) Sync(offset, size vm.Offset, data []byte) error {
	if err := p.PageOut(offset, size, data); err != nil || !p.syncAfterOut {
		return err
	}
	return p.file.Sync()
}

// DoneWithPagerObject implements vm.PagerObject.
func (p *pagerObject) DoneWithPagerObject() {}

// GetAttributes implements FsPagerObject.
func (p *pagerObject) GetAttributes() (Attributes, error) { return p.file.Stat() }

// SetAttributes implements FsPagerObject. Times are the lower file's; only
// the length is the layer's to set.
func (p *pagerObject) SetAttributes(attrs Attributes) error {
	return (*FilePager)(p).SetLength(attrs.Length)
}
