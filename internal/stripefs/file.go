package stripefs

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// Striping math (RAID-0 over K servers with stripe width S):
//
//	stripe number  sn     = off / S
//	home server    k      = sn mod K
//	object offset  objOff = (sn / K) * S + off mod S
//
// Each server holds one object per file; the object is the concatenation
// of every stripe the server owns, densely packed. The inverse mapping
// (logicalEnd) recovers the last logical byte a given object length
// implies, so the file length is the maximum over the servers — no length
// field is kept anywhere, exactly like a single file's length lives in its
// one inode.

// locate maps a logical offset to its home server and object offset.
func (l layout) locate(off int64) (server int, objOff int64) {
	sn := off / l.stripeSize
	return int(sn % int64(l.count)), (sn/int64(l.count))*l.stripeSize + off%l.stripeSize
}

// eofServer returns the server owning the last byte of a file of length L
// (L > 0).
func (l layout) eofServer(length int64) int {
	k, _ := l.locate(length - 1)
	return k
}

// objLenFor returns the exact object length server k holds when the file
// is fully written out to length L: complete stripes plus, on the server
// owning the partial final stripe, the remainder.
func (l layout) objLenFor(length int64, k int) int64 {
	if length <= 0 {
		return 0
	}
	full := length / l.stripeSize
	rem := length % l.stripeSize
	kk := int64(k)
	complete := full / int64(l.count)
	if kk < full%int64(l.count) {
		complete++
	}
	n := complete * l.stripeSize
	if rem > 0 && kk == full%int64(l.count) {
		n += rem
	}
	return n
}

// logicalEnd returns the logical end-of-file position implied by server k
// holding an object of objLen bytes (the position just past the last byte
// of its last stripe's data).
func (l layout) logicalEnd(objLen int64, k int) int64 {
	if objLen <= 0 {
		return 0
	}
	m := (objLen - 1) / l.stripeSize // index of the object's last stripe, within the object
	sn := m*int64(l.count) + int64(k)
	return sn*l.stripeSize + (objLen-1)%l.stripeSize + 1
}

// segment is one contiguous piece of an I/O that lands inside a single
// stripe: p[poff:poff+n] of the caller's buffer maps to [objOff,
// objOff+n) of the home server's object.
type segment struct {
	objOff int64
	poff   int
	n      int
}

// segments decomposes the byte range [off, off+n) into per-stripe segments
// grouped by home server, recording each segment's position in the
// caller's buffer.
func (l layout) segments(off int64, n int) [][]segment {
	out := make([][]segment, l.count)
	poff := 0
	for n > 0 {
		k, objOff := l.locate(off)
		chunk := int(l.stripeSize - off%l.stripeSize)
		if chunk > n {
			chunk = n
		}
		out[k] = append(out[k], segment{objOff: objOff, poff: poff, n: chunk})
		off += int64(chunk)
		poff += chunk
		n -= chunk
	}
	return out
}

// stripeFile is one logical file striped over the data servers.
type stripeFile struct {
	fsys.PathHandle
	fs      *StripeFS
	lay     layout
	backing uint64
	locks   []sync.Mutex // per-server object acquisition locks

	mu       sync.Mutex
	meta     fsys.File // the layout file (attribute fallback for empty files)
	unlinked bool
	objs     []fsys.File // per-server object handles, nil until touched
}

var (
	_ fsys.File             = (*stripeFile)(nil)
	_ fsys.HandleFile       = (*stripeFile)(nil)
	_ naming.ProxyWrappable = (*stripeFile)(nil)
)

// WrapForChannel implements naming.ProxyWrappable.
func (f *stripeFile) WrapForChannel(ch *spring.Channel) naming.Object {
	return fsys.NewFileProxy(ch, f)
}

// setUnlinked marks the file as removed-while-retained: stripe objects
// created from now on immediately drop their server-side names, keeping
// their storage live only behind the retained handles.
func (f *stripeFile) setUnlinked() {
	f.mu.Lock()
	f.unlinked = true
	f.mu.Unlock()
}

// heldObjects applies count — the handle table's Retain or Release — and
// snapshots the objects acquired so far, both under f.mu: handle(),
// retro-retaining a freshly acquired object under the same lock, then sees
// either the old count and an object this call's snapshot has, or the new
// count and one it lacks.
func (f *stripeFile) heldObjects(count func(*stripeFile)) []fsys.File {
	f.mu.Lock()
	defer f.mu.Unlock()
	count(f)
	objs := make([]fsys.File, 0, len(f.objs))
	for _, h := range f.objs {
		if h != nil {
			objs = append(objs, h)
		}
	}
	return objs
}

// Retain implements fsys.HandleFile: the handle is held on every stripe
// object acquired so far; objects acquired later are retro-retained by
// handle().
func (f *stripeFile) Retain() {
	for _, h := range f.heldObjects(f.fs.files.Retain) {
		fsys.Retain(h)
	}
}

// Release implements fsys.HandleFile.
func (f *stripeFile) Release() error {
	var err error
	for _, h := range f.heldObjects(f.fs.files.Release) {
		if e := fsys.Release(h); err == nil {
			err = e
		}
	}
	return err
}

// handle returns the file's object handle on data server k, resolving (or,
// when create is set, creating) the stripe object on first touch. A server
// out of the fan-out fails fast. A missing object with create unset returns
// errNoObject: the stripes that server owns read as zeros. Per-server locks
// keep first-touch resolution concurrent across servers while preventing
// duplicate creates on one.
func (f *stripeFile) handle(k int, create bool) (fsys.File, error) {
	if !f.fs.health.OK(k) {
		stripeDegraded.Inc()
		return nil, fmt.Errorf("stripefs: %s: data server %d out of fan-out (%w)",
			f.Path(), k, fsys.ErrUnavailable)
	}
	f.mu.Lock()
	h := f.objs[k]
	f.mu.Unlock()
	if h != nil {
		return h, nil
	}
	f.locks[k].Lock()
	defer f.locks[k].Unlock()
	f.mu.Lock()
	h = f.objs[k]
	f.mu.Unlock()
	if h != nil {
		return h, nil
	}
	srv, err := f.fs.serverFS(k, f.lay.count)
	if err != nil {
		return nil, err
	}
	objName := f.lay.objName()
	created := false
	obj, rerr := srv.Resolve(objName, naming.Root)
	switch {
	case rerr == nil:
		h, err = fsys.AsFile(obj)
		if err != nil {
			return nil, err
		}
	case !isNotFound(rerr):
		f.fs.health.Note(k, rerr)
		return nil, rerr
	case !create:
		return nil, errNoObject
	default:
		h, err = srv.Create(objName, naming.Root)
		if err != nil {
			f.fs.health.Note(k, err)
			return nil, err
		}
		created = true
		stripeObjects.Inc()
	}
	f.mu.Lock()
	for i := int64(0); i < f.Retained(); i++ {
		fsys.Retain(h)
	}
	unlinked := f.unlinked
	f.objs[k] = h
	f.mu.Unlock()
	if created && unlinked {
		// The file has no name any more: the object keeps its storage only
		// behind the retained handle, so drop its server-side name too.
		_ = srv.Remove(objName, naming.Root)
	}
	return h, nil
}

// acquireAll opens handles for every existing stripe object (best effort;
// Remove uses it to keep a retained file's storage reachable after the
// object names go away).
func (f *stripeFile) acquireAll() {
	for k := 0; k < f.lay.count; k++ {
		_, _ = f.handle(k, false)
	}
}

// visit runs op on the file's object on data server k — the one step every
// file operation is made of. A server with no object (and create unset)
// has nothing to do: its stripes are a hole. A failing op is reported with
// its server, and indicts the server if the failure is the transport's. A
// tolerant visit is for operations that can answer without the server (the
// length is what the reachable servers imply): an unavailable server is
// passed over, counted as a degradation.
func (f *stripeFile) visit(k int, create, tolerant bool, op func(k int, h fsys.File) error) error {
	h, err := f.handle(k, create)
	if err == nil {
		if err = op(k, h); err != nil {
			f.fs.health.Note(k, err)
			if tolerant && errors.Is(err, fsys.ErrUnavailable) {
				stripeDegraded.Inc()
			}
			err = fmt.Errorf("stripefs: %s: server %d: %w", f.Path(), k, err)
		}
	}
	if errors.Is(err, errNoObject) || tolerant && errors.Is(err, fsys.ErrUnavailable) {
		return nil
	}
	return err
}

// onAll visits the file's object on every server, in parallel, creating
// the one on server createK (-1: none) if it is missing.
func (f *stripeFile) onAll(createK int, tolerant bool, op func(k int, h fsys.File) error) error {
	ks := make([]int, f.lay.count)
	for k := range ks {
		ks[k] = k
	}
	return f.fs.runFanOut(ks, func(k int) error { return f.visit(k, k == createK, tolerant, op) })
}

// moveSegments reads into (or, with write set, writes from) p the bytes at
// [off, off+len(p)), fanning out to the home servers in parallel. A write
// creates stripe objects on first touch. A read sees zeros in holes —
// stripes on servers whose object is missing or shorter; its caller has
// already clamped the range to the file length.
func (f *stripeFile) moveSegments(p []byte, off int64, write bool) error {
	if !write {
		clear(p)
	}
	groups := f.lay.segments(off, len(p))
	ks := make([]int, 0, len(groups))
	for k, segs := range groups {
		if len(segs) > 0 {
			ks = append(ks, k)
		}
	}
	return f.fs.runFanOut(ks, func(k int) error {
		return f.visit(k, write, false, func(k int, h fsys.File) error {
			for _, sg := range groups[k] {
				buf := p[sg.poff : sg.poff+sg.n]
				if write {
					if _, err := h.WriteAt(buf, sg.objOff); err != nil {
						return err
					}
				} else if _, err := h.ReadAt(buf, sg.objOff); err != nil && !errors.Is(err, io.EOF) {
					return err
				}
			}
			return nil
		})
	})
}

// attrs derives the file's attributes from its objects: the length is the
// maximum logical end implied by any server's object length; with times
// set, the times are the newest any object reports, falling back to the
// layout file's for files with no data yet (without, only the length is
// asked for, which is what the read path can afford). Servers out of the
// fan-out are skipped so healthy stripes stay readable; their stripes
// cannot extend the visible length until Revive.
func (f *stripeFile) attrs(times bool) (fsys.Attributes, error) {
	var mu sync.Mutex
	var out fsys.Attributes
	if times {
		f.mu.Lock()
		meta := f.meta
		f.mu.Unlock()
		if meta != nil {
			if a, err := meta.Stat(); err == nil {
				out.AccessTime, out.ModifyTime = a.AccessTime, a.ModifyTime
			}
		}
	}
	err := f.onAll(-1, true, func(k int, h fsys.File) (err error) {
		var a fsys.Attributes
		if times {
			a, err = h.Stat()
		} else {
			a.Length, err = h.GetLength()
		}
		if err != nil {
			return err
		}
		end := f.lay.logicalEnd(a.Length, k)
		mu.Lock()
		defer mu.Unlock()
		out.Length = max(out.Length, end)
		if a.ModifyTime.After(out.ModifyTime) {
			out.ModifyTime = a.ModifyTime
		}
		if a.AccessTime.After(out.AccessTime) {
			out.AccessTime = a.AccessTime
		}
		return nil
	})
	if err != nil {
		return fsys.Attributes{}, err
	}
	return out, nil
}

// ReadAt implements fsys.File.
func (f *stripeFile) ReadAt(p []byte, off int64) (int, error) {
	t := opRead.Start()
	a, err := f.attrs(false)
	if err != nil {
		return 0, err
	}
	L := a.Length
	if off >= L {
		if len(p) == 0 {
			return 0, nil
		}
		return 0, io.EOF
	}
	n := len(p)
	eof := false
	if int64(n) > L-off {
		n = int(L - off)
		eof = true
	}
	if err := f.moveSegments(p[:n], off, false); err != nil {
		return 0, err
	}
	opRead.End(t, int64(n))
	if eof {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements fsys.File.
func (f *stripeFile) WriteAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	t := opWrite.Start()
	if err := f.moveSegments(p, off, true); err != nil {
		return 0, err
	}
	opWrite.End(t, int64(len(p)))
	return len(p), nil
}

// Stat implements fsys.File.
func (f *stripeFile) Stat() (fsys.Attributes, error) { return f.attrs(true) }

// Sync implements fsys.File: every existing stripe object is flushed.
func (f *stripeFile) Sync() error {
	return f.onAll(-1, false, func(k int, h fsys.File) error { return h.Sync() })
}

// GetLength implements vm.MemoryObject.
func (f *stripeFile) GetLength() (vm.Offset, error) {
	a, err := f.attrs(false)
	return a.Length, err
}

// SetLength implements vm.MemoryObject: every existing object is set to
// the exact length it would have were the file fully written out to L
// (truncating or zero-extending per server; a server with no object has
// nothing to shrink, and holes stay holes), and the object owning the new
// EOF is created if missing so the derived length lands exactly on L.
func (f *stripeFile) SetLength(length vm.Offset) error {
	eofK := -1
	if length > 0 {
		eofK = f.lay.eofServer(length)
	}
	return f.onAll(eofK, false, func(k int, h fsys.File) error {
		return h.SetLength(f.lay.objLenFor(length, k))
	})
}

// Bind implements vm.MemoryObject: the striping layer is the pager for its
// files (data is spread over servers, so no single lower cache channel can
// be shared). Each 64-page extent the VMM pages in or out decomposes into
// per-server pieces that travel concurrently.
func (f *stripeFile) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	rights, _, _ := f.fs.table.Bind(caller, f.backing, func() vm.PagerObject {
		return &fsys.FilePager{File: f, In: f.pageIn, Out: f.pageOut}
	})
	return rights, nil
}

// pageIn is the pager's page-in. Pages past the objects' data (holes,
// tails) come back zero-filled.
func (f *stripeFile) pageIn(offset, size vm.Offset, access vm.Rights) ([]byte, error) {
	out := make([]byte, size)
	if err := f.moveSegments(out, offset, false); err != nil {
		return nil, err
	}
	return out, nil
}

// pageOut is the pager's page-out.
func (f *stripeFile) pageOut(offset, size vm.Offset, data []byte) error {
	return f.moveSegments(data, offset, true)
}
