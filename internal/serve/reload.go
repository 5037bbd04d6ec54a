package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"portcc/internal/ml"
)

// loaded is one resolved model artifact held warm in memory.
type loaded struct {
	Model *ml.Model
	Info  ml.ArtifactInfo
	// SHA256 is the hex digest of the artifact file bytes - the
	// fingerprint half of the mtime/fingerprint reload check, and the
	// identity /healthz reports.
	SHA256  string
	ModTime time.Time
	Size    int64
}

// model returns the model in service, hot-reloading it when the
// artifact changed on disk. Staleness is checked at most once per
// cfg.ReloadEvery (a stat on the throttle boundary); a changed mtime or
// size triggers a re-read, and only a changed content digest swaps the
// served model, so touch(1) alone never churns. A failed reload
// (unreadable, foreign, or version-mismatched file) keeps the last good
// model serving - an always-on server must not drop its model because a
// deploy wrote half an artifact. portccs_model_reloads_total counts the
// outcomes: "ok" (a new model swapped in; the initial load in New counts
// too), "error" (stat, read or decode failed) and "rejected"
// (acceptModel refused it); unchanged checks count nothing. Concurrent
// callers never block behind a reload: one goroutine checks, the others
// keep serving the current model until the swap lands.
func (s *Server) model() *loaded {
	cur := s.cur.Load()
	if time.Since(time.Unix(0, s.lastCheck.Load())) < s.cfg.ReloadEvery || !s.reload.TryLock() {
		return cur
	}
	defer s.reload.Unlock()
	// The pointer read above may predate a swap that landed before the
	// TryLock; checking against it would count that swap twice.
	cur = s.cur.Load()
	s.lastCheck.Store(time.Now().UnixNano())
	path := s.cfg.ModelPath
	next, err := readArtifact(path, cur)
	if err != nil {
		s.cfg.Logf("model reload failed, keeping loaded model: %v", err)
		s.mReloads.Inc("error")
		return cur
	}
	if next.Model == cur.Model {
		// Unchanged, or touched with identical content: keep the new
		// stat identity so the next check is cheap again.
		s.cur.Store(next)
		return next
	}
	if err := s.acceptModel(next, cur); err != nil {
		s.cfg.Logf("model %s: rejected, keeping loaded model: %v", path, err)
		s.mReloads.Inc("rejected")
		return cur
	}
	s.cur.Store(next)
	s.cfg.Logf("model %s: reloaded (%d pairs, dataset %.12s...)", path, len(next.Model.Pairs), next.Info.DatasetSHA256)
	s.mReloads.Inc("ok")
	return next
}

// readArtifact stats the artifact at path against cur (nil on the first
// load). It returns cur itself when mtime and size are unchanged, and a
// copy of cur carrying the new stat identity when the bytes digest the
// same; only changed content is decoded.
func readArtifact(path string, cur *loaded) (*loaded, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if cur != nil && st.ModTime().Equal(cur.ModTime) && st.Size() == cur.Size {
		return cur, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	sha := hex.EncodeToString(sum[:])
	if cur != nil && sha == cur.SHA256 {
		next := *cur
		next.ModTime, next.Size = st.ModTime(), st.Size()
		return &next, nil
	}
	m, info, err := ml.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &loaded{Model: m, Info: info, SHA256: sha, ModTime: st.ModTime(), Size: st.Size()}, nil
}
