package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
)

// Ext is the snapshot file extension the Manager writes and scans for.
const Ext = ".fsmc"

// ErrCommit reports a background commit that failed: the temp file, write,
// fsync, rename or prune of a snapshot Start had accepted. The wrapped
// cause says which. The newest previously committed snapshot is still in
// place; a commit that had taken over the oldest retained snapshot's file
// (see Manager) has lost that one.
var ErrCommit = errors.New("ckpt: checkpoint commit failed")

// ErrStaleStep reports a Start refused because, with Keep > 0, the
// directory already holds a snapshot of a later step: the prune after the
// commit could delete the file just committed (see Manager).
var ErrStaleStep = errors.New("ckpt: step older than the newest snapshot in the directory")

// Manager owns a directory of step-numbered snapshots, "step-%012d.fsmc",
// pruned to the newest Keep after every commit. The zero Keep retains
// everything.
//
// With Keep > 0 the directory only moves forward: Start refuses, with
// ErrStaleStep, a step older than the newest snapshot already there — as a
// run restarted in a directory of a later run's snapshots would commit —
// before it encodes or writes anything, since the prune would otherwise
// delete the file it had just committed and reported. A refused Start
// leaves the directory and what Wait returns as they were. Keep-all prunes
// nothing, so it commits any step, and LoadLatest returns the newest.
//
// Commits run in the background, at most one in flight. Start encodes a
// snapshot's header and metadata on the caller's goroutine and returns; one
// goroutine then checksums and writes the tensors' data straight from the
// caller's memory into a temp file, fsyncs, renames it over the final
// name, fsyncs the directory and prunes. So the commit reads the caller's
// tensors until the next Start, Wait or List returns: write none of them
// before that. The snapshot is durable once the next Start or a Wait has
// returned without error. List, Latest and LoadLatest wait for the commit
// in flight first, so they see it. A Manager is safe for concurrent use.
//
// With Keep >= 2, a commit whose prune would delete the oldest retained
// snapshot takes that file over as its temp file instead: it renames it
// to the temp name and overwrites it in place, which spares allocating a
// fresh file and freeing the old one. A newer committed snapshot stays
// under its final name throughout, so a crash or a failed commit leaves
// the newest committed snapshot, Keep−1 in all: it costs the oldest one.
// A path older than the newest Keep may be overwritten by the next
// commit, so do not hold it open; copy it to keep it. Only a regular file
// is taken over. With Keep = 1 or keep-all, each commit writes a fresh
// file.
type Manager struct {
	Dir  string
	Keep int // snapshots to retain after each commit; <=0 keeps all

	mu       sync.Mutex
	inflight *commit // the commit handed off last, until a wait collects it
	err      error   // the collected commit's failure
	reported bool    // a Start has returned err

	// The last Start's encoding and the commit's write scratch, kept from
	// one Start to the next; the commit in flight owns both.
	enc     encoding
	scratch []byte
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
// again. With Keep > 0 it refuses a step older than the directory's newest
// snapshot (ErrStaleStep; see Manager). Otherwise Start encodes s's header
// and metadata, hands the rest of the commit to a background goroutine and
// returns. The commit reads the data of s's tensors, the caller's memory,
// until the next Start, Wait or List returns, so the caller writes none of
// it before then; it reads nothing else of s once Start has returned. With
// Keep >= 2 the commit may overwrite the oldest retained snapshot's file
// (see Manager), so hold no path older than the newest Keep open.
func (m *Manager) Start(s *Snapshot) (string, error) {
	m.lockIdle()
	defer m.mu.Unlock()
	if m.err != nil && !m.reported {
		m.reported = true
		return "", m.err
	}
	if m.Dir == "" {
		return "", fmt.Errorf("ckpt: manager needs a directory")
	}
	path := m.pathFor(s.Step)
	if m.Keep > 0 {
		paths, err := list(m.Dir)
		if err != nil {
			return "", err
		}
		if n := len(paths); n > 0 && paths[n-1] > path {
			return "", fmt.Errorf("%w: step %d after %s", ErrStaleStep, s.Step, filepath.Base(paths[n-1]))
		}
	}
	m.err = nil
	if err := os.MkdirAll(m.Dir, 0o755); err != nil {
		return "", fmt.Errorf("ckpt: save: %w", err)
	}
	if err := m.enc.reset(s); err != nil {
		return "", err
	}
	if m.scratch == nil {
		m.scratch = make([]byte, 0, scratchLen)
	}
	e, scratch, dir, keep := &m.enc, m.scratch, m.Dir, m.Keep
	c := &commit{done: make(chan struct{})}
	m.inflight = c
	go func() {
		defer close(c.done)
		err := writeAtomic(path, e, scratch, recyclable(path, keep))
		// The caller's tensors are theirs again: hold none of them alive.
		clear(e.spans)
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

// recyclable returns the snapshot file that the prune after path's commit
// would remove first, if the commit may take it over as its temp file: a
// regular file, older than path, with keep >= 2, so a newer committed
// snapshot stays under its final name while the commit runs. Otherwise "".
func recyclable(path string, keep int) string {
	if keep < 2 {
		return ""
	}
	paths, err := list(filepath.Dir(path))
	if err != nil || len(paths) == 0 || paths[0] >= path {
		return ""
	}
	n := len(paths) // snapshots once path is committed
	if _, found := slices.BinarySearch(paths, path); !found {
		n++
	}
	if n <= keep {
		return ""
	}
	if fi, err := os.Lstat(paths[0]); err != nil || !fi.Mode().IsRegular() {
		return ""
	}
	return paths[0]
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
