package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"portcc/internal/ml"
)

// Loaded is one resolved model artifact held warm in memory.
type Loaded struct {
	Model *ml.Model
	Info  ml.ArtifactInfo
	// SHA256 is the hex digest of the artifact file bytes - the
	// fingerprint half of the mtime/fingerprint reload check, and the
	// identity /healthz reports.
	SHA256  string
	ModTime time.Time
	Size    int64
}

// Registry keeps model artifacts warm in memory and hot-reloads them
// when the file on disk changes. Staleness is checked at most once per
// reloadEvery per path (a stat on the throttle boundary); a changed
// mtime or size triggers a re-read, and only a changed content digest
// swaps the served model, so touch(1) alone never churns. A failed
// reload (unreadable, foreign, or version-mismatched file) keeps the
// last good model serving and is reported through onReload - an
// always-on server must not drop its model because a deploy wrote half
// an artifact.
type Registry struct {
	reloadEvery time.Duration
	// accept gates a freshly decoded artifact before it is swapped in
	// (nil accepts everything); cur is the model it would replace, nil on
	// first load. Rejections keep the current model.
	accept func(next, cur *Loaded) error
	// onReload observes reload outcomes: "ok" (new model swapped in),
	// "error" (read/decode failed), "rejected" (accept refused it).
	// Unchanged stat checks are not reported.
	onReload func(outcome string)
	logf     func(string, ...any)

	mu      sync.Mutex
	entries map[string]*regEntry
}

type regEntry struct {
	reload    sync.Mutex // serialises stat+read+swap
	cur       atomic.Pointer[Loaded]
	lastCheck atomic.Int64 // unix nanos of the last stat
}

// NewRegistry builds a registry. reloadEvery bounds how often a Get may
// stat the artifact (zero: every Get stats). The hooks may be nil.
func NewRegistry(reloadEvery time.Duration, accept func(next, cur *Loaded) error, onReload func(string), logf func(string, ...any)) *Registry {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if onReload == nil {
		onReload = func(string) {}
	}
	return &Registry{
		reloadEvery: reloadEvery,
		accept:      accept,
		onReload:    onReload,
		logf:        logf,
		entries:     map[string]*regEntry{},
	}
}

// Get returns the warm model for path, loading it on first use and
// refreshing it when the file changed on disk. Concurrent callers never
// block behind a reload once a model is warm: they keep the previous
// model until the swap lands.
func (r *Registry) Get(path string) (*Loaded, error) {
	r.mu.Lock()
	en, ok := r.entries[path]
	if !ok {
		en = &regEntry{}
		r.entries[path] = en
	}
	r.mu.Unlock()

	cur := en.cur.Load()
	if cur != nil && !r.due(en) {
		return cur, nil
	}
	// Cold load or stale check: one goroutine does the work; with a warm
	// model the others skip past on the TryLock and keep serving it.
	if cur != nil {
		if !en.reload.TryLock() {
			return cur, nil
		}
	} else {
		en.reload.Lock()
	}
	defer en.reload.Unlock()
	return r.refresh(path, en)
}

// due reports whether the throttled stat check is owed.
func (r *Registry) due(en *regEntry) bool {
	last := en.lastCheck.Load()
	return time.Since(time.Unix(0, last)) >= r.reloadEvery
}

// refresh stats the file and swaps in a new model if its content
// changed. Called with en.reload held.
func (r *Registry) refresh(path string, en *regEntry) (*Loaded, error) {
	cur := en.cur.Load()
	en.lastCheck.Store(time.Now().UnixNano())
	st, err := os.Stat(path)
	if err != nil {
		if cur != nil {
			r.logf("model %s: stat failed, keeping loaded model: %v", path, err)
			r.onReload("error")
			return cur, nil
		}
		return nil, err
	}
	if cur != nil && st.ModTime().Equal(cur.ModTime) && st.Size() == cur.Size {
		return cur, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if cur != nil {
			r.logf("model %s: read failed, keeping loaded model: %v", path, err)
			r.onReload("error")
			return cur, nil
		}
		return nil, err
	}
	sum := sha256.Sum256(data)
	sha := hex.EncodeToString(sum[:])
	if cur != nil && sha == cur.SHA256 {
		// Touched but identical content: remember the new stat identity
		// so the next check is cheap again.
		next := *cur
		next.ModTime, next.Size = st.ModTime(), st.Size()
		en.cur.Store(&next)
		return &next, nil
	}
	m, info, err := ml.Decode(data)
	if err != nil {
		if cur != nil {
			r.logf("model %s: decode failed, keeping loaded model: %v", path, err)
			r.onReload("error")
			return cur, nil
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	next := &Loaded{Model: m, Info: info, SHA256: sha, ModTime: st.ModTime(), Size: st.Size()}
	if r.accept != nil {
		if err := r.accept(next, cur); err != nil {
			if cur != nil {
				r.logf("model %s: rejected, keeping loaded model: %v", path, err)
				r.onReload("rejected")
				return cur, nil
			}
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	en.cur.Store(next)
	if cur != nil {
		r.logf("model %s: reloaded (%d pairs, dataset %.12s...)", path, len(m.Pairs), info.DatasetSHA256)
	}
	r.onReload("ok")
	return next, nil
}
