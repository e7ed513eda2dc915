// Package dfs implements the Spring distributed file system layer of the
// paper (Section 4.2.2, Figure 7, and Section 6.2): a network-coherent
// layer stacked on top of SFS that exports the underlying files to other
// machines through a private binary protocol, while keeping all access
// paths coherent.
//
// The two architectural moves reproduced from Figure 7:
//
//   - Local binds to file_DFS are forwarded to the corresponding file_SFS,
//     so local clients use the same cache (C1) as direct clients of
//     file_SFS and DFS is not involved in local page-in/page-out traffic.
//
//   - DFS acts as a cache manager to SFS (the P2–C2 connection) to handle
//     remote operations. Remote page traffic flows through P2–C2, so
//     changes to locally cached data that affect pages cached by remote
//     clients are communicated to DFS by SFS (which revokes DFS like any
//     other cache manager), and DFS's own coherency actions over its
//     network protocol are communicated to SFS through the same channel.
//
// Across remote clients DFS runs a per-block single-writer/multiple-readers
// protocol of its own; composing it with SFS's MRSW through the P2–C2
// connection yields system-wide coherency.
package dfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	"springfs/internal/naming"
)

// Op identifies a protocol operation.
type Op uint8

// Client-to-server operations.
const (
	OpLookup Op = iota + 1
	OpCreate
	OpRemove
	OpMkdir
	OpList
	OpRead
	OpWrite
	OpPageIn
	OpPageOut
	OpGetAttr
	OpSetAttr
	OpGetLen
	OpSetLen
	OpSyncFile
	OpClose
	// OpDetach is sent by Client.Close before dropping the connection: the
	// server releases all of the client's sessions (and with them its
	// coherency holdings) synchronously, so home-node writers do not have to
	// discover the departure through a timed-out revocation.
	OpDetach
	// OpRename atomically moves a name on the server. Like the other
	// namespace mutations it is not idempotent: a lost response must not
	// trigger a retry that fails (or re-applies) on the already-renamed
	// name.
	OpRename
	// OpAppend writes at the server-side end of file, where the one
	// authoritative length lives, so O_APPEND is atomic across every
	// client of the file.
	OpAppend
	// OpRetain/OpRelease carry a client machine's one claim on a file (its
	// first handle and its last) so an unlink on any node defers storage
	// reclamation until the last handle anywhere is closed.
	OpRetain
	OpRelease

	// Server-to-client callbacks (coherency actions).
	OpCbFlushBack
	OpCbDenyWrites
	OpCbDeleteRange
	OpCbInvalAttrs
)

// String implements fmt.Stringer.
func (o Op) String() string {
	names := map[Op]string{
		OpLookup: "lookup", OpCreate: "create", OpRemove: "remove",
		OpMkdir: "mkdir", OpList: "list", OpRead: "read", OpWrite: "write",
		OpPageIn: "page_in", OpPageOut: "page_out", OpGetAttr: "get_attr",
		OpSetAttr: "set_attr", OpGetLen: "get_len", OpSetLen: "set_len",
		OpSyncFile: "sync_file", OpClose: "close", OpDetach: "detach",
		OpRename: "rename", OpAppend: "append", OpRetain: "retain",
		OpRelease:     "release",
		OpCbFlushBack: "cb_flush_back", OpCbDenyWrites: "cb_deny_writes",
		OpCbDeleteRange: "cb_delete_range", OpCbInvalAttrs: "cb_inval_attrs",
	}
	if s, ok := names[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Idempotent reports whether an operation can be retried safely after a
// timeout: re-executing it on the server produces the same result and no
// extra side effects. Reads, stats, lookups, and page-ins qualify; anything
// that mutates namespace or data (create, remove, write, page-out, setattr)
// does not, because the first attempt may have been applied before the
// response frame was lost. Callbacks are never retried by the caller — the
// coherency layer owns their failure handling.
func (o Op) Idempotent() bool {
	switch o {
	case OpLookup, OpList, OpRead, OpPageIn, OpGetAttr, OpGetLen:
		return true
	}
	return false
}

// Frame kinds.
const (
	kindRequest  = 0
	kindResponse = 1
)

// Retain modes for OpPageOut (mirrors page_out/write_out/sync).
const (
	RetainNone  = 0 // page_out: caller no longer retains
	RetainRead  = 1 // write_out: caller retains read-only
	RetainWrite = 2 // sync: caller retains read-write
)

// maxFrame bounds a frame to keep a corrupted length prefix from
// allocating unbounded memory.
const maxFrame = 16 << 20

// maxPageOutPayload bounds the data carried by one OpPageOut frame, well
// under maxFrame. Clients split larger write-back extents into
// consecutive calls; the handler rejects anything bigger (or not a whole
// number of pages).
const maxPageOutPayload = 4 << 20

// ErrProtocol reports a malformed frame or payload.
var ErrProtocol = errors.New("dfs: protocol error")

// ErrRemote wraps an error string returned by the peer.
type ErrRemote struct{ Msg string }

// Error implements error.
func (e *ErrRemote) Error() string { return "dfs: remote: " + e.Msg }

// remoteNameErrors are the sentinels an ErrRemote answers for: the wire
// carries only the peer's message, so a name error is recognised by its
// sentinel's text in it.
var remoteNameErrors = []error{naming.ErrNotFound, naming.ErrNotContext, naming.ErrExists, naming.ErrNotEmpty}

// Is reports whether the peer's error was one of the naming sentinels
// (errors.Is); it answers for no other error.
func (e *ErrRemote) Is(target error) bool {
	return slices.Contains(remoteNameErrors, target) && strings.Contains(e.Msg, target.Error())
}

// frame is one protocol message.
type frame struct {
	kind    uint8
	op      Op
	id      uint64
	payload []byte
}

// encoder builds payloads.
type encoder struct{ b []byte }

func (e *encoder) u8(v uint8)   { e.b = append(e.b, v) }
func (e *encoder) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) bytes(v []byte) {
	e.u32(uint32(len(v)))
	e.b = append(e.b, v...)
}
func (e *encoder) str(v string) { e.bytes([]byte(v)) }
func (e *encoder) flag(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// decoder consumes payloads.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) u8() uint8 {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) bytes() []byte {
	n := d.u32()
	if d.err != nil || uint32(len(d.b)) < n {
		d.fail()
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) str() string { return string(d.bytes()) }

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrProtocol
	}
	d.b = nil
}
