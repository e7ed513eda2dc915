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
	fs      *StripeFS
	lay     layout
	backing uint64
	locks   []sync.Mutex // per-server object acquisition locks

	mu       sync.Mutex
	name     string
	meta     fsys.File // the layout file (attribute fallback for empty files)
	retained int64
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

// rename records the file's new path after a Rename re-keyed the map.
func (f *stripeFile) rename(name string) {
	f.mu.Lock()
	f.name = name
	f.mu.Unlock()
}

// pathName returns the file's current path (for diagnostics).
func (f *stripeFile) pathName() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.name
}

// retainCount reports the outstanding Retain balance.
func (f *stripeFile) retainCount() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.retained
}

// setUnlinked marks the file as removed-while-retained: stripe objects
// created from now on immediately drop their server-side names, keeping
// their storage live only behind the retained handles.
func (f *stripeFile) setUnlinked() {
	f.mu.Lock()
	f.unlinked = true
	f.mu.Unlock()
}

// Retain implements fsys.HandleFile: the handle is held on every stripe
// object acquired so far; objects acquired later are retro-retained by
// handle().
func (f *stripeFile) Retain() {
	f.mu.Lock()
	f.retained++
	objs := make([]fsys.File, 0, len(f.objs))
	for _, h := range f.objs {
		if h != nil {
			objs = append(objs, h)
		}
	}
	f.mu.Unlock()
	for _, h := range objs {
		fsys.Retain(h)
	}
}

// Release implements fsys.HandleFile.
func (f *stripeFile) Release() error {
	f.mu.Lock()
	f.retained--
	last := f.retained <= 0
	objs := make([]fsys.File, 0, len(f.objs))
	for _, h := range f.objs {
		if h != nil {
			objs = append(objs, h)
		}
	}
	f.mu.Unlock()
	if last {
		f.fs.mu.Lock()
		delete(f.fs.orphans, f)
		f.fs.mu.Unlock()
	}
	var err error
	for _, h := range objs {
		if e := fsys.Release(h); err == nil {
			err = e
		}
	}
	return err
}

// handle returns the file's object handle on data server k, resolving (or,
// when create is set, creating) the stripe object on first touch. A
// missing object with create unset returns errNoObject: the stripes that
// server owns read as zeros. Per-server locks keep first-touch resolution
// concurrent across servers while preventing duplicate creates on one.
func (f *stripeFile) handle(k int, create bool) (fsys.File, error) {
	f.mu.Lock()
	h := f.objs[k]
	f.mu.Unlock()
	if h != nil {
		return h, nil
	}
	if !f.fs.serverHealthy(k) {
		stripeDegraded.Inc()
		return nil, fmt.Errorf("stripefs: %s: data server %d out of fan-out (%w)",
			f.pathName(), k, fsys.ErrUnavailable)
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
		f.fs.noteError(k, rerr)
		return nil, rerr
	case !create:
		return nil, errNoObject
	default:
		h, err = srv.Create(objName, naming.Root)
		if err != nil {
			f.fs.noteError(k, err)
			return nil, err
		}
		created = true
		stripeObjects.Inc()
	}
	f.mu.Lock()
	for i := int64(0); i < f.retained; i++ {
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

// readSegments fills p with the bytes at [off, off+len(p)), fanning out to
// the home servers in parallel. Bytes in holes — stripes on servers whose
// object is missing or shorter — read as zeros; the caller has already
// clamped the range to the file length.
func (f *stripeFile) readSegments(p []byte, off int64) error {
	for i := range p {
		p[i] = 0
	}
	groups := f.lay.segments(off, len(p))
	var tasks []func() error
	for k := range groups {
		segs := groups[k]
		if len(segs) == 0 {
			continue
		}
		k := k
		tasks = append(tasks, func() error {
			h, err := f.handle(k, false)
			if errors.Is(err, errNoObject) {
				return nil
			}
			if err != nil {
				return err
			}
			for _, sg := range segs {
				if _, err := h.ReadAt(p[sg.poff:sg.poff+sg.n], sg.objOff); err != nil && !errors.Is(err, io.EOF) {
					f.fs.noteError(k, err)
					return fmt.Errorf("stripefs: %s: server %d: %w", f.pathName(), k, err)
				}
			}
			return nil
		})
	}
	return f.fs.runFanOut(tasks)
}

// writeSegments writes p at [off, off+len(p)), creating stripe objects on
// first touch and fanning out to the home servers in parallel.
func (f *stripeFile) writeSegments(p []byte, off int64) error {
	groups := f.lay.segments(off, len(p))
	var tasks []func() error
	for k := range groups {
		segs := groups[k]
		if len(segs) == 0 {
			continue
		}
		k := k
		tasks = append(tasks, func() error {
			h, err := f.handle(k, true)
			if err != nil {
				return err
			}
			for _, sg := range segs {
				if _, err := h.WriteAt(p[sg.poff:sg.poff+sg.n], sg.objOff); err != nil {
					f.fs.noteError(k, err)
					return fmt.Errorf("stripefs: %s: server %d: %w", f.pathName(), k, err)
				}
			}
			return nil
		})
	}
	return f.fs.runFanOut(tasks)
}

// length derives the file length: the maximum logical end implied by any
// server's object length. Servers out of the fan-out are skipped (counted
// as degradations) so healthy stripes stay readable; their stripes cannot
// extend the visible length until Revive.
func (f *stripeFile) length() (int64, error) {
	var mu sync.Mutex
	var L int64
	var tasks []func() error
	for k := 0; k < f.lay.count; k++ {
		k := k
		tasks = append(tasks, func() error {
			if !f.fs.serverHealthy(k) {
				stripeDegraded.Inc()
				return nil
			}
			h, err := f.handle(k, false)
			if errors.Is(err, errNoObject) {
				return nil
			}
			if err != nil {
				if errors.Is(err, fsys.ErrUnavailable) {
					stripeDegraded.Inc()
					return nil
				}
				return err
			}
			n, err := h.GetLength()
			if err != nil {
				f.fs.noteError(k, err)
				if errors.Is(err, fsys.ErrUnavailable) {
					stripeDegraded.Inc()
					return nil
				}
				return err
			}
			end := f.lay.logicalEnd(int64(n), k)
			mu.Lock()
			if end > L {
				L = end
			}
			mu.Unlock()
			return nil
		})
	}
	if err := f.fs.runFanOut(tasks); err != nil {
		return 0, err
	}
	return L, nil
}

// ReadAt implements fsys.File.
func (f *stripeFile) ReadAt(p []byte, off int64) (int, error) {
	t := opRead.Start()
	L, err := f.length()
	if err != nil {
		return 0, err
	}
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
	if err := f.readSegments(p[:n], off); err != nil {
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
	if err := f.writeSegments(p, off); err != nil {
		return 0, err
	}
	opWrite.End(t, int64(len(p)))
	return len(p), nil
}

// Stat implements fsys.File: the length is derived from the objects; the
// times are the newest any object reports, falling back to the layout
// file's times for files with no data yet.
func (f *stripeFile) Stat() (fsys.Attributes, error) {
	var mu sync.Mutex
	var attrs fsys.Attributes
	f.mu.Lock()
	meta := f.meta
	f.mu.Unlock()
	if meta != nil {
		if a, err := meta.Stat(); err == nil {
			attrs.AccessTime = a.AccessTime
			attrs.ModifyTime = a.ModifyTime
		}
	}
	var tasks []func() error
	for k := 0; k < f.lay.count; k++ {
		k := k
		tasks = append(tasks, func() error {
			if !f.fs.serverHealthy(k) {
				stripeDegraded.Inc()
				return nil
			}
			h, err := f.handle(k, false)
			if errors.Is(err, errNoObject) {
				return nil
			}
			if err != nil {
				if errors.Is(err, fsys.ErrUnavailable) {
					stripeDegraded.Inc()
					return nil
				}
				return err
			}
			a, err := h.Stat()
			if err != nil {
				f.fs.noteError(k, err)
				if errors.Is(err, fsys.ErrUnavailable) {
					stripeDegraded.Inc()
					return nil
				}
				return err
			}
			end := f.lay.logicalEnd(a.Length, k)
			mu.Lock()
			if end > attrs.Length {
				attrs.Length = end
			}
			if a.ModifyTime.After(attrs.ModifyTime) {
				attrs.ModifyTime = a.ModifyTime
			}
			if a.AccessTime.After(attrs.AccessTime) {
				attrs.AccessTime = a.AccessTime
			}
			mu.Unlock()
			return nil
		})
	}
	if err := f.fs.runFanOut(tasks); err != nil {
		return fsys.Attributes{}, err
	}
	return attrs, nil
}

// Sync implements fsys.File: every existing stripe object is flushed.
func (f *stripeFile) Sync() error {
	var tasks []func() error
	for k := 0; k < f.lay.count; k++ {
		k := k
		tasks = append(tasks, func() error {
			h, err := f.handle(k, false)
			if errors.Is(err, errNoObject) {
				return nil
			}
			if err != nil {
				return err
			}
			if err := h.Sync(); err != nil {
				f.fs.noteError(k, err)
				return err
			}
			return nil
		})
	}
	return f.fs.runFanOut(tasks)
}

// GetLength implements vm.MemoryObject.
func (f *stripeFile) GetLength() (vm.Offset, error) {
	n, err := f.length()
	return vm.Offset(n), err
}

// SetLength implements vm.MemoryObject: every existing object is set to
// the exact length it would have were the file fully written out to L
// (truncating or zero-extending per server), and the object owning the new
// EOF is created if missing so the derived length lands exactly on L.
func (f *stripeFile) SetLength(length vm.Offset) error {
	L := int64(length)
	eofK := -1
	if L > 0 {
		eofK = f.lay.eofServer(L)
	}
	var tasks []func() error
	for k := 0; k < f.lay.count; k++ {
		k := k
		tasks = append(tasks, func() error {
			target := f.lay.objLenFor(L, k)
			h, err := f.handle(k, k == eofK)
			if errors.Is(err, errNoObject) {
				return nil // nothing to shrink; holes stay holes
			}
			if err != nil {
				return err
			}
			if err := h.SetLength(vm.Offset(target)); err != nil {
				f.fs.noteError(k, err)
				return err
			}
			return nil
		})
	}
	return f.fs.runFanOut(tasks)
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
	if err := f.readSegments(out, offset); err != nil {
		return nil, err
	}
	return out, nil
}

// pageOut is the pager's page-out.
func (f *stripeFile) pageOut(offset, size vm.Offset, data []byte) error {
	return f.writeSegments(data, offset)
}
