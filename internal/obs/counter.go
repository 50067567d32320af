package obs

import (
	"reflect"
	"sync/atomic"
)

// Counter is a lock-free monotone event counter: unlike Gauge it only moves
// up — faults injected, snapshots recovered, requests shed. The zero value
// is ready to use; all methods are safe for concurrent use.
//
// A Counter must not be copied after first use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add moves the counter forward by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// LoadCounters copies a counter struct: a struct of exported fields whose
// uint64 fields are counters updated with sync/atomic (atomic.AddUint64 on
// the field's address). Each uint64 field is read with an atomic load;
// fields of other types are left zero. The struct type is then the only
// declaration of its counters — a snapshot needs no field list.
//
// Place such a struct where 64-bit atomics are aligned on every platform:
// first in its enclosing allocation, or after only 64-bit fields.
func LoadCounters[T any](src *T) T {
	var out T
	sv, dv := reflect.ValueOf(src).Elem(), reflect.ValueOf(&out).Elem()
	for i := 0; i < sv.NumField(); i++ {
		if p, ok := sv.Field(i).Addr().Interface().(*uint64); ok {
			dv.Field(i).SetUint(atomic.LoadUint64(p))
		}
	}
	return out
}
