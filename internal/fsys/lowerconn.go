package fsys

import (
	"fmt"
	"sync"
	"sync/atomic"

	"springfs/internal/spring"
	"springfs/internal/vm"
)

// LowerConn is the cache-manager end of one pager-cache connection to a
// lower file (Section 4.2: a stacked file system acting as a cache manager
// to the layer below it). It is the vm.CacheManager handed to the lower
// file's Bind and keeps the pager object the lower layer hands back. The
// layer fills in the exported fields before first use; a LowerConn must not
// be copied after that.
type LowerConn struct {
	Layer  string         // with ID, names the manager: "<Layer>/file<ID>"
	ID     uint64         // also the identifier of the rights token issued
	Domain *spring.Domain // serves Cache
	Lower  File           // the file bound to,
	Access vm.Rights      // with this access
	// Cache is handed down: the lower layer's coherency actions arrive at it.
	Cache vm.CacheObject

	bindMu sync.Mutex // one bind at a time; NewConnection never takes it
	end    atomic.Pointer[lowerEnd]
}

// lowerEnd is what one bind produced.
type lowerEnd struct {
	pager   vm.PagerObject
	fsPager FsPagerObject // nil unless pager narrows to fs_pager
}

// ManagerName implements vm.CacheManager.
func (c *LowerConn) ManagerName() string { return fmt.Sprintf("%s/file%d", c.Layer, c.ID) }

// ManagerDomain implements vm.CacheManager.
func (c *LowerConn) ManagerDomain() *spring.Domain { return c.Domain }

// NewConnection implements vm.CacheManager: the object exchange of the
// lower file's bind.
func (c *LowerConn) NewConnection(pager vm.PagerObject) (vm.CacheObject, vm.CacheRights) {
	e := &lowerEnd{pager: pager}
	e.fsPager, _ = spring.Narrow[FsPagerObject](pager)
	c.end.Store(e)
	return c.Cache, vm.RightsToken{ID: c.ID, Manager: c.ManagerName()}
}

// Pager returns the lower file's pager object, binding to the file on
// first use: issuing the bind is what makes the layer a cache manager for
// it (Section 4.2.1).
func (c *LowerConn) Pager() (vm.PagerObject, error) {
	e := c.end.Load()
	if e == nil {
		c.bindMu.Lock()
		defer c.bindMu.Unlock()
		if e = c.end.Load(); e == nil {
			if _, err := c.Lower.Bind(c, c.Access, 0, 0); err != nil {
				return nil, fmt.Errorf("%s: bind to lower file: %w", c.ManagerName(), err)
			}
			if e = c.end.Load(); e == nil {
				return nil, fmt.Errorf("%s: lower bind established no pager-cache connection", c.ManagerName())
			}
		}
	}
	return e.pager, nil
}

// FsPager returns the lower pager narrowed to fs_pager, or nil when it does
// not narrow or nothing is bound yet; callers then use the file interface.
func (c *LowerConn) FsPager() FsPagerObject {
	if e := c.end.Load(); e != nil {
		return e.fsPager
	}
	return nil
}

// Done closes this end of the connection (done_with_pager_object) and
// forgets the pager; a later Pager binds afresh.
func (c *LowerConn) Done() {
	if e := c.end.Swap(nil); e != nil {
		e.pager.DoneWithPagerObject()
	}
}
