package fsys

import (
	"cmp"
	"encoding/binary"
	"io"
	"slices"
)

// ImageHeaderSize is the header page at the start of an image.
const ImageHeaderSize = BlockSize

// Extent is the byte range [Off, Off+Len) of an image.
type Extent struct{ Off, Len int64 }

// Image is the on-disk format of a layer that keeps each file as a remap
// table plus data extents in one lower file (COMPFS, SNAPFS): a header
// page — magic, version, table offset and length — then the table and the
// extents wherever a first-fit allocator put them. A zero-length lower
// file, or one whose header was never written, is an empty image.
//
// Commit writes the new table into free space, syncs, points the header at
// it and syncs again. Only then do the extents freed since the last commit
// (the old table's included) become allocatable, so a power cut finds the
// committed table and every extent it names intact. Loading refuses an
// extent outside the image or overlapping another: each has one owner.
// The layer fills in the exported fields, owns the table's encoding and
// serialises every call under its own lock.
type Image struct {
	Lower   File
	ReadAt  func(p []byte, off int64) (int, error) // reads Lower; nil means Lower.ReadAt
	Magic   uint64
	Version uint32
	Align   int64 // extent alignment and size granularity; divides ImageHeaderSize
	Bad     error // returned, unwrapped, for what is not an image of this version

	free    []Extent // holes below end, ascending, never adjacent
	end     int64    // everything from end on is free
	table   Extent   // the committed table; Len 0 before the first commit
	pending []Extent // freed since the last commit
}

// LoadImage reads im's committed table, hands it to decode (empty for an
// empty image) and rebuilds the allocator from the extents decode reports
// live. It returns the table decode made of it.
func LoadImage[T any](im *Image, decode func(table []byte) (T, []Extent, error)) (tbl T, err error) {
	length, err := im.Lower.GetLength()
	if err != nil {
		return tbl, err
	}
	im.free, im.end, im.table, im.pending = nil, ImageHeaderSize, Extent{}, nil
	var hdr [28]byte
	if err := im.Read(hdr[:], 0); err != nil {
		return tbl, err
	}
	var table []byte
	if be := binary.BigEndian; hdr != [28]byte{} {
		im.table = Extent{int64(be.Uint64(hdr[12:])), int64(be.Uint64(hdr[20:]))}
		if be.Uint64(hdr[:]) != im.Magic || be.Uint32(hdr[8:]) != im.Version || !im.inside(im.table, length) {
			return tbl, im.Bad
		}
		table = make([]byte, im.table.Len)
		if err := im.Read(table, im.table.Off); err != nil {
			return tbl, err
		}
	}
	tbl, live, err := decode(table)
	if err != nil {
		return tbl, err
	}
	if im.table.Len > 0 {
		live = append(live, im.table)
	}
	slices.SortFunc(live, func(a, b Extent) int { return cmp.Compare(a.Off, b.Off) })
	for _, e := range live {
		if !im.inside(e, length) || e.Off < im.end {
			return tbl, im.Bad
		}
		if e.Off > im.end {
			im.free = append(im.free, Extent{im.end, e.Off - im.end})
		}
		im.end = e.Off + im.round(e.Len)
	}
	return tbl, nil
}

// inside reports whether e is an aligned, non-empty extent past the header
// and within the first length bytes.
func (im *Image) inside(e Extent, length int64) bool {
	return e.Off >= ImageHeaderSize && e.Off%im.Align == 0 && e.Len > 0 && e.Len <= length-e.Off
}

func (im *Image) round(n int64) int64 { return (n + im.Align - 1) / im.Align * im.Align }

// Read fills p from off; what lies past the lower file's end reads as zero.
func (im *Image) Read(p []byte, off int64) error {
	read := im.ReadAt
	if read == nil {
		read = im.Lower.ReadAt
	}
	n, err := read(p, off)
	if err == io.EOF {
		err = nil
	}
	clear(p[n:])
	return err
}

// hole is the index of the first hole that takes n bytes, or -1.
func (im *Image) hole(n int64) int {
	return slices.IndexFunc(im.free, func(h Extent) bool { return h.Len >= im.round(n) })
}

// Alloc reserves n bytes, first fit, and returns their offset.
func (im *Image) Alloc(n int64) int64 {
	n = im.round(n)
	i := im.hole(n)
	if i < 0 {
		im.end += n
		return im.end - n
	}
	h := im.free[i]
	im.free[i] = Extent{h.Off + n, h.Len - n}
	if h.Len == n {
		im.free = slices.Delete(im.free, i, i+1)
	}
	return h.Off
}

// Free gives back an extent the layer stopped using; it becomes
// allocatable once the next commit is durable.
func (im *Image) Free(off, n int64) { im.pending = append(im.pending, Extent{off, im.round(n)}) }

// Compact moves the extents of table — every extent the layer's table
// names — highest first, each into the lowest hole below it that takes it,
// and reports whether any moved. What they leave is freed like any other
// extent.
func Compact[K comparable](im *Image, table map[K]Extent) (moved bool, err error) {
	keys := make([]K, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b K) int { return cmp.Compare(table[b].Off, table[a].Off) })
	for _, k := range keys {
		e := table[k]
		if i := im.hole(e.Len); i < 0 || im.free[i].Off > e.Off {
			continue
		}
		buf := make([]byte, e.Len)
		if err := im.Read(buf, e.Off); err != nil {
			return moved, err
		}
		to := im.Alloc(e.Len)
		if _, err := im.Lower.WriteAt(buf, to); err != nil {
			return moved, err
		}
		im.Free(e.Off, e.Len)
		table[k], moved = Extent{to, e.Len}, true
	}
	return moved, nil
}

// Commit makes table the committed table (see Image). Once the image is
// Sparse, it also cuts the free tail off the lower file. A failed commit
// frees nothing.
func (im *Image) Commit(table []byte) error {
	t := Extent{im.Alloc(int64(len(table))), int64(len(table))}
	be := binary.BigEndian
	hdr := be.AppendUint64(be.AppendUint64(be.AppendUint32(be.AppendUint64(nil, im.Magic), im.Version), uint64(t.Off)), uint64(t.Len))
	if _, err := im.Lower.WriteAt(table, t.Off); err != nil {
		return err
	}
	if err := im.Lower.Sync(); err != nil {
		return err
	}
	if _, err := im.Lower.WriteAt(hdr, 0); err != nil {
		return err
	}
	if err := im.Lower.Sync(); err != nil {
		return err
	}
	if im.table.Len > 0 {
		im.Free(im.table.Off, im.table.Len)
	}
	im.table = t
	// The dropped extents join the holes, merging where they touch.
	holes := append(im.free, im.pending...)
	slices.SortFunc(holes, func(a, b Extent) int { return cmp.Compare(a.Off, b.Off) })
	im.free, im.pending = holes[:0], nil
	for _, h := range holes {
		if n := len(im.free); n > 0 && im.free[n-1].Off+im.free[n-1].Len == h.Off {
			im.free[n-1].Len += h.Len
		} else {
			im.free = append(im.free, h)
		}
	}
	if n := len(im.free); n > 0 && im.free[n-1].Off+im.free[n-1].Len == im.end {
		im.end, im.free = im.free[n-1].Off, im.free[:n-1]
	}
	length, err := im.Lower.GetLength()
	if tail := length - im.end; err == nil && tail > 0 && im.sparse(tail) {
		err = im.Lower.SetLength(im.end)
	}
	return err
}

// Sparse reports whether the image holds more free bytes than live ones,
// counting the extents freed since the last commit as free. A commit then
// cuts the free tail off the lower file; a layer whose extents vary in
// size should Compact them and commit again.
func (im *Image) Sparse() bool { return im.sparse(0) }

// sparse is Sparse for an image followed by tail free bytes.
func (im *Image) sparse(tail int64) bool {
	free := tail
	for _, e := range slices.Concat(im.free, im.pending) {
		free += e.Len
	}
	return free > im.end+tail-free
}

// Stat returns the attributes of the file im holds from its length, or
// the error reading it (Stat(f.GetLength())): that length, and the times
// of the image file.
func (im *Image) Stat(length int64, err error) (Attributes, error) {
	if err != nil {
		return Attributes{}, err
	}
	attrs, err := im.Lower.Stat()
	attrs.Length = length
	return attrs, err
}
