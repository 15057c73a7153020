package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Ext is the snapshot file extension the Manager writes and scans for.
const Ext = ".fsmc"

// ErrCommit reports a background commit that failed: the temp file, write,
// fsync, rename or prune of a snapshot Start had accepted. The wrapped
// cause says which. The previously committed snapshot is still in place.
var ErrCommit = errors.New("ckpt: checkpoint commit failed")

// Manager owns a directory of step-numbered snapshots, "step-%012d.fsmc",
// pruned to the newest Keep after every commit. The zero Keep retains
// everything.
//
// Commits run in the background, at most one in flight. Start encodes a
// snapshot on the caller's goroutine into a buffer the Manager keeps and
// returns; one goroutine then checksums it, writes a temp file, fsyncs,
// renames it over the final name, fsyncs the directory and prunes. The
// snapshot is durable once the next Start, a Wait or Save has returned
// without error. List, Latest and LoadLatest wait for the commit in
// flight first, so they see it. A Manager is safe for concurrent use.
type Manager struct {
	Dir  string
	Keep int // snapshots to retain after each commit; <=0 keeps all

	mu       sync.Mutex
	inflight *commit // the commit handed off last, until a wait collects it
	err      error   // the collected commit's failure
	reported bool    // a Start has returned err
	buf      []byte  // the encode buffer; the commit in flight owns it
}

// commit is one background commit; err is set before done is closed.
type commit struct {
	done chan struct{}
	err  error
}

// pathFor is the canonical file name of a step's snapshot. Zero-padded
// fixed width keeps lexical order equal to numeric order.
func (m *Manager) pathFor(step int) string {
	return filepath.Join(m.Dir, fmt.Sprintf("step-%012d%s", step, Ext))
}

// lockIdle locks m once no commit is in flight, collecting the outcome of
// each one it waits for. It never holds the lock while it waits.
func (m *Manager) lockIdle() {
	m.mu.Lock()
	for c := m.inflight; c != nil; c = m.inflight {
		m.mu.Unlock()
		<-c.done
		m.mu.Lock()
		if m.inflight == c {
			m.inflight, m.err, m.reported = nil, c.err, false
		}
	}
}

// Start begins committing s under its step number and returns the path it
// commits to. It first waits for the commit in flight. If the last commit
// failed and no Start has reported it yet, Start returns that failure
// (wrapping ErrCommit) and commits nothing; the Start after it commits
// again. Otherwise Start encodes s, hands the rest of the commit to a
// background goroutine and returns: from then on the commit reads nothing
// of s, so s may alias memory the caller goes on to change.
func (m *Manager) Start(s *Snapshot) (string, error) {
	m.lockIdle()
	defer m.mu.Unlock()
	if m.err != nil && !m.reported {
		m.reported = true
		return "", m.err
	}
	m.err = nil
	if m.Dir == "" {
		return "", fmt.Errorf("ckpt: manager needs a directory")
	}
	if err := os.MkdirAll(m.Dir, 0o755); err != nil {
		return "", fmt.Errorf("ckpt: save: %w", err)
	}
	buf, err := appendSnapshot(m.buf, s)
	if err != nil {
		return "", err
	}
	m.buf = buf
	path, dir, keep := m.pathFor(s.Step), m.Dir, m.Keep
	c := &commit{done: make(chan struct{})}
	m.inflight = c
	go func() {
		defer close(c.done)
		seal(buf)
		err := writeAtomic(path, buf)
		if err == nil {
			err = prune(dir, keep)
		}
		if err != nil {
			c.err = fmt.Errorf("%w: %s: %w", ErrCommit, filepath.Base(path), err)
		}
	}()
	return path, nil
}

// Wait blocks until no commit is in flight and returns the last commit's
// failure (wrapping ErrCommit), or nil if it succeeded. A failure stays
// until a later Start commits again, so every Wait returns it.
func (m *Manager) Wait() error {
	m.lockIdle()
	defer m.mu.Unlock()
	return m.err
}

// Save is Start followed by Wait: it returns once s is durable, with the
// written path. A commit failure it returns counts as reported, so the
// next Start commits again.
func (m *Manager) Save(s *Snapshot) (string, error) {
	path, err := m.Start(s)
	if err != nil {
		return "", err
	}
	m.lockIdle()
	defer m.mu.Unlock()
	if m.err != nil {
		m.reported = true
		return "", m.err
	}
	return path, nil
}

// List returns every snapshot path in the directory, oldest first, once
// the commit in flight has finished.
func (m *Manager) List() ([]string, error) {
	m.lockIdle()
	m.mu.Unlock()
	return list(m.Dir)
}

func list(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "step-*"+Ext))
	if err != nil {
		return nil, fmt.Errorf("ckpt: list: %w", err)
	}
	sort.Strings(paths)
	return paths, nil
}

// Latest returns the newest snapshot path, or ErrNoCheckpoint when the
// directory holds none.
func (m *Manager) Latest() (string, error) {
	paths, err := m.List()
	if err != nil {
		return "", err
	}
	if len(paths) == 0 {
		return "", fmt.Errorf("%w in %s", ErrNoCheckpoint, m.Dir)
	}
	return paths[len(paths)-1], nil
}

// LoadLatest reads and verifies the newest snapshot.
func (m *Manager) LoadLatest() (*Snapshot, error) {
	path, err := m.Latest()
	if err != nil {
		return nil, err
	}
	return Load(path)
}

// prune removes the oldest snapshots in dir beyond keep.
func prune(dir string, keep int) error {
	if keep <= 0 {
		return nil
	}
	paths, err := list(dir)
	if err != nil {
		return err
	}
	for len(paths) > keep {
		if err := os.Remove(paths[0]); err != nil {
			return fmt.Errorf("ckpt: prune: %w", err)
		}
		paths = paths[1:]
	}
	return nil
}
