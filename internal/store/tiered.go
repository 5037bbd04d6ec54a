// Tiered composes the local directory store and the remote service
// client into one Backend: Get checks local first, then the service,
// writing remote hits back into the local tier so a flaky service is
// only ever paid for once per key per shard. Put commits to both. The
// remote tier is strictly best-effort - every one of its failure modes
// is already degraded to a miss or a counted lost commit by Remote, so
// the Tiered contract collapses to the local store's.
package store

import "errors"

// Tiered is a local-then-remote Backend; both tiers are set. A shard
// with no cache directory needs no composition: its Backend is the
// Remote itself.
type Tiered struct {
	local  *Store
	remote *Remote
}

// NewTiered composes the tiers. Close closes both.
func NewTiered(local *Store, remote *Remote) *Tiered {
	return &Tiered{local: local, remote: remote}
}

// Get serves k from the warmest tier that has it. A corrupt local
// entry (already quarantined by the local store) still consults the
// service - its copy was committed independently and may be intact -
// so corruption costs a round trip, not a recomputation, when the
// fleet has the bytes.
func (t *Tiered) Get(k Key) ([]byte, bool, error) {
	payload, ok, localErr := t.local.Get(k)
	if ok {
		return payload, true, nil
	}
	if payload, ok, _ := t.remote.Get(k); ok {
		// Write-back: the next Get for k is local. A failed local
		// commit is already counted there and costs nothing here.
		t.local.Put(k, payload)
		return payload, true, nil
	}
	return nil, false, localErr
}

// Put commits to both tiers. The local commit's error is the caller's
// (it means this shard stays uncached); a lost remote commit is
// absorbed - it only costs the fleet a recomputation elsewhere and is
// visible in RemotePutErrors.
func (t *Tiered) Put(k Key, payload []byte) error {
	err := t.local.Put(k, payload)
	t.remote.Put(k, payload)
	return err
}

// Quarantine retires k in both tiers: the local file moves aside, the
// remote key is never asked of the service again this session.
func (t *Tiered) Quarantine(k Key, reason error) error {
	err := t.local.Quarantine(k, reason)
	if rerr := t.remote.Quarantine(k, reason); err == nil {
		err = rerr
	}
	return err
}

// Stats merges the tiers: Hits counts Gets answered by either tier,
// Misses the Gets neither could answer (remote-tier trouble included -
// each degraded request missed). The resident-set and commit fields
// are the local tier's; the Remote* fields are the service client's.
func (t *Tiered) Stats() Stats {
	st, rs := t.local.Stats(), t.remote.Stats()
	st.RemoteHits = rs.RemoteHits
	st.RemoteMisses = rs.RemoteMisses
	st.RemoteErrors = rs.RemoteErrors
	st.RemotePuts = rs.RemotePuts
	st.RemotePutErrors = rs.RemotePutErrors
	st.Hits += rs.RemoteHits
	// Every Get the local tier could not answer went remote, so the
	// whole backend's misses are exactly the remote tier's non-answers
	// (clean misses plus degraded requests).
	st.Misses = rs.Misses
	return st
}

// Close closes both tiers.
func (t *Tiered) Close() error {
	return errors.Join(t.local.Close(), t.remote.Close())
}

// Backend conformance across the family.
var (
	_ Backend = (*Store)(nil)
	_ Backend = (*Remote)(nil)
	_ Backend = (*Tiered)(nil)
)
