package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ppdp/ppdp/internal/dataset"
)

// Store errors.
var (
	// ErrWALCorrupt reports damaged acknowledged history: an interior WAL
	// record failing its checksum. Recovery refuses to guess; restore from a
	// snapshot directory instead.
	ErrWALCorrupt = errors.New("store: WAL corrupt")
	// ErrManifestCorrupt reports an unreadable checkpoint manifest.
	ErrManifestCorrupt = errors.New("store: manifest corrupt")
	// ErrUnknownTable is returned when a record references a table snapshot
	// that is not in the store.
	ErrUnknownTable = errors.New("store: unknown table snapshot")
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("store: closed")
)

// Record kinds journaled by the registry.
const (
	KindDataset = "dataset"
	KindRelease = "release"
	KindPolicy  = "policy"
	KindSpec    = "spec"
)

// Op codes.
const (
	OpPut    = "put"
	OpDelete = "delete"
)

// Op is one journaled registry mutation. Meta is opaque to the store — the
// server serializes whatever bookkeeping it needs (tenants, parameters,
// measurements) and gets the same bytes back at recovery. Tables lists the
// content fingerprints of the table snapshots the record depends on; Apply
// verifies they exist before acknowledging, so a recovered record can always
// load its data.
type Op struct {
	Op     string          `json:"op"`
	Kind   string          `json:"kind"`
	Key    string          `json:"key"`
	Seq    uint64          `json:"seq,omitempty"`
	Tables []string        `json:"tables,omitempty"`
	Meta   json.RawMessage `json:"meta,omitempty"`
}

// Record is the durable state of one registry object.
type Record struct {
	Kind   string          `json:"kind"`
	Key    string          `json:"key"`
	Seq    uint64          `json:"seq,omitempty"`
	Tables []string        `json:"tables,omitempty"`
	Meta   json.RawMessage `json:"meta,omitempty"`
}

// manifestName is the checkpoint manifest file; walPrefix names WAL
// generations (wal.<gen>); tablesDir holds content-addressed table
// snapshots (<fingerprint>.tbl).
const (
	manifestName = "manifest.json"
	walPrefix    = "wal."
	tablesDir    = "tables"
	tmpSuffix    = ".tmp"
)

type manifestJSON struct {
	Version     int      `json:"version"`
	Gen         uint64   `json:"gen"`
	NextSeq     uint64   `json:"next_seq"`
	CreatedUnix int64    `json:"created_unix"`
	Records     []Record `json:"records"`
}

// Options configures a Store.
type Options struct {
	// FS overrides the filesystem (for fault injection); nil uses the OS.
	FS FS
	// CheckpointBytes triggers an automatic checkpoint when the WAL grows
	// past it. Zero selects the default (8 MiB); negative disables automatic
	// checkpoints.
	CheckpointBytes int64
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time
	// OnFsync, when set, observes the duration of every WAL fsync.
	OnFsync func(time.Duration)
}

const defaultCheckpointBytes = 8 << 20

// putGrace is how long checkpoint GC spares an unreferenced table after its
// PutTable: the put-to-Apply window of a live request, with a wide margin.
const putGrace = time.Minute

// Store is the durable registry state: an in-memory view of the records,
// kept in lockstep with a WAL-journaled, checkpointed on-disk image, plus
// the mmap-backed table snapshots the records reference.
type Store struct {
	dir  string
	fs   FS
	now  func() time.Time
	opts Options

	mu      sync.Mutex
	closed  bool
	records map[string]map[string]Record // kind → key → record
	nextSeq uint64

	gen            uint64
	wal            File
	walPath        string
	walSize        int64
	walRecords     int64
	walFsyncs      int64
	checkpointT    time.Time
	checkpointErrs int64

	tables map[string]int64 // fingerprint → snapshot file size
	// putAt records when each table was last put (or re-put), until an
	// Apply references it. A caller puts a table before the Apply that
	// references it, so checkpoint GC spares unreferenced tables put within
	// putGrace: any number of checkpoints may run inside that window.
	putAt  map[string]time.Time
	putSeq atomic.Uint64 // numbers PutTable temp files
	// mapped holds every table snapshot opened so far, by fingerprint.
	mapped map[string]*dataset.MappedTable

	recovery         time.Duration
	recoveredRecords int
	recoveredTorn    bool
}

// Open opens (or initializes) the store rooted at dir and recovers its
// state: the latest checkpoint manifest is loaded and the current WAL
// generation replayed over it, truncating a torn final record if the last
// run crashed mid-append. Open fails — rather than serving partial state —
// if acknowledged history is damaged (ErrWALCorrupt, ErrManifestCorrupt) or
// a recovered record references a missing table snapshot.
func Open(dir string, opts Options) (*Store, error) {
	fs := opts.FS
	if fs == nil {
		fs = OSFS()
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = defaultCheckpointBytes
	}
	start := now()
	if err := fs.MkdirAll(filepath.Join(dir, tablesDir), 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:     dir,
		fs:      fs,
		now:     now,
		opts:    opts,
		records: map[string]map[string]Record{},
		tables:  map[string]int64{},
		putAt:   map[string]time.Time{},
		mapped:  map[string]*dataset.MappedTable{},
	}

	man, err := s.loadManifest()
	if err != nil {
		return nil, err
	}
	s.gen = man.Gen
	s.nextSeq = man.NextSeq
	s.checkpointT = time.Unix(man.CreatedUnix, 0)
	if man.CreatedUnix == 0 {
		s.checkpointT = start
	}
	for _, r := range man.Records {
		s.setRecord(r)
	}

	if err := s.scanTables(); err != nil {
		return nil, err
	}

	s.walPath = filepath.Join(dir, fmt.Sprintf("%s%08d", walPrefix, s.gen))
	rep, err := loadWAL(fs, s.walPath)
	if err != nil {
		return nil, err
	}
	s.recoveredTorn = rep.torn
	for _, payload := range rep.payloads {
		var op Op
		if err := json.Unmarshal(payload, &op); err != nil {
			return nil, fmt.Errorf("%w: %s: undecodable record: %v", ErrWALCorrupt, s.walPath, err)
		}
		if err := checkOp(op); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrWALCorrupt, s.walPath, err)
		}
		if err := s.applyLocked(op); err != nil {
			return nil, fmt.Errorf("store: replay %s: %w", s.walPath, err)
		}
		s.recoveredRecords++
	}
	s.walSize = rep.size
	s.walRecords = int64(len(rep.payloads))

	// Every recovered record must be loadable: verify table references now
	// so boot fails loudly instead of a later request 500ing.
	for _, byKey := range s.records {
		for _, r := range byKey {
			for _, fp := range r.Tables {
				if _, ok := s.tables[fp]; !ok {
					return nil, fmt.Errorf("store: %s %q references missing table snapshot %s",
						r.Kind, r.Key, fp)
				}
			}
		}
	}

	s.removeStaleFiles()
	s.recovery = now().Sub(start)
	return s, nil
}

func (s *Store) loadManifest() (manifestJSON, error) {
	path := filepath.Join(s.dir, manifestName)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return manifestJSON{Version: 1}, nil
		}
		return manifestJSON{}, err
	}
	var man manifestJSON
	if err := json.Unmarshal(data, &man); err != nil {
		return manifestJSON{}, fmt.Errorf("%w: %s: %v", ErrManifestCorrupt, path, err)
	}
	if man.Version != 1 {
		return manifestJSON{}, fmt.Errorf("%w: %s: unsupported version %d", ErrManifestCorrupt, path, man.Version)
	}
	// A checkpoint holds only records Apply accepted, with NextSeq past
	// each of them.
	for i, r := range man.Records {
		if err := checkRecord(r.Kind, r.Key, r.Seq); err != nil {
			return manifestJSON{}, fmt.Errorf("%w: %s: record %d: %v", ErrManifestCorrupt, path, i, err)
		}
		if r.Seq >= man.NextSeq {
			return manifestJSON{}, fmt.Errorf("%w: %s: next_seq %d does not exceed record %d's seq %d",
				ErrManifestCorrupt, path, man.NextSeq, i, r.Seq)
		}
	}
	return man, nil
}

// scanTables indexes the content-addressed snapshot files.
func (s *Store) scanTables() error {
	entries, err := s.fs.ReadDir(filepath.Join(s.dir, tablesDir))
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".tbl") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		s.tables[strings.TrimSuffix(name, ".tbl")] = info.Size()
	}
	return nil
}

// removeStaleFiles deletes leftovers from interrupted checkpoints and table
// writes: temp files and WAL files of other generations. Best-effort — a
// failure here only leaks disk, never state.
func (s *Store) removeStaleFiles() {
	if entries, err := s.fs.ReadDir(s.dir); err == nil {
		for _, e := range entries {
			name := e.Name()
			stale := strings.HasSuffix(name, tmpSuffix) ||
				(strings.HasPrefix(name, walPrefix) && filepath.Join(s.dir, name) != s.walPath)
			if stale {
				_ = s.fs.Remove(filepath.Join(s.dir, name))
			}
		}
	}
	if entries, err := s.fs.ReadDir(filepath.Join(s.dir, tablesDir)); err == nil {
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), tmpSuffix) {
				_ = s.fs.Remove(filepath.Join(s.dir, tablesDir, e.Name()))
			}
		}
	}
}

func (s *Store) setRecord(r Record) {
	byKey := s.records[r.Kind]
	if byKey == nil {
		byKey = map[string]Record{}
		s.records[r.Kind] = byKey
	}
	byKey[r.Key] = r
	if r.Seq >= s.nextSeq {
		s.nextSeq = r.Seq + 1
	}
}

// checkOp refuses an op no store state can hold: an unknown op, or one
// checkRecord refuses. Apply calls it before journaling, so a refused op
// leaves no WAL trace; replay refuses such a record as ErrWALCorrupt.
func checkOp(op Op) error {
	if op.Op != OpPut && op.Op != OpDelete {
		return fmt.Errorf("store: unknown op %q", op.Op)
	}
	return checkRecord(op.Kind, op.Key, op.Seq)
}

// checkRecord refuses a record no store state can hold: an empty kind or
// key, or the largest sequence number, past which NextSeq would wrap to 0.
// It guards both recovery sources: WAL ops (through checkOp) and checkpoint
// manifest records, refused as ErrManifestCorrupt.
func checkRecord(kind, key string, seq uint64) error {
	switch {
	case kind == "" || key == "":
		return fmt.Errorf("store: op needs kind and key")
	case seq == math.MaxUint64:
		return fmt.Errorf("store: op seq %d out of range", seq)
	}
	return nil
}

// applyLocked mutates the in-memory view with an op checkOp accepted. It is
// used both by live Apply (after the WAL append) and by replay.
func (s *Store) applyLocked(op Op) error {
	if op.Op == OpDelete {
		delete(s.records[op.Kind], op.Key)
		if op.Seq >= s.nextSeq {
			s.nextSeq = op.Seq + 1
		}
		return nil
	}
	for _, fp := range op.Tables {
		if _, ok := s.tables[fp]; !ok {
			return fmt.Errorf("%w: %s (%s %q)", ErrUnknownTable, fp, op.Kind, op.Key)
		}
	}
	for _, fp := range op.Tables {
		delete(s.putAt, fp)
	}
	s.setRecord(Record{Kind: op.Kind, Key: op.Key, Seq: op.Seq, Tables: op.Tables, Meta: op.Meta})
	return nil
}

// Apply journals op (append + fsync) and then applies it to the in-memory
// view. If journaling fails the view is untouched and the caller must treat
// the mutation as not having happened.
func (s *Store) Apply(op Op) error {
	if err := checkOp(op); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	// Validate before journaling so a rejected op leaves no WAL trace.
	if op.Op == OpPut {
		for _, fp := range op.Tables {
			if _, ok := s.tables[fp]; !ok {
				return fmt.Errorf("%w: %s (%s %q)", ErrUnknownTable, fp, op.Kind, op.Key)
			}
		}
	}
	payload, err := json.Marshal(op)
	if err != nil {
		return err
	}
	if s.wal == nil {
		f, err := s.fs.OpenFile(s.walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		if err := s.fs.SyncDir(s.dir); err != nil {
			f.Close()
			return err
		}
		s.wal = f
	}
	fsyncStart := s.now()
	n, err := appendWALRecord(s.wal, payload)
	if err != nil {
		// The frame may be partially on disk; reopen-on-boot truncates it.
		// Close the handle so no later append can extend a torn tail.
		s.wal.Close()
		s.wal = nil
		return fmt.Errorf("store: journal %s %s %q: %w", op.Op, op.Kind, op.Key, err)
	}
	if s.opts.OnFsync != nil {
		s.opts.OnFsync(s.now().Sub(fsyncStart))
	}
	s.walSize += n
	s.walRecords++
	s.walFsyncs++
	if err := s.applyLocked(op); err != nil {
		return err
	}
	if s.opts.CheckpointBytes > 0 && s.walSize >= s.opts.CheckpointBytes {
		// Threshold checkpoint; the op is already journaled and applied, so a
		// checkpoint failure must not fail the acknowledged mutation (callers
		// would otherwise desynchronize from durable state). It is recorded
		// in Stats so operators see the disk problem, and the WAL simply
		// keeps growing until a checkpoint succeeds.
		if err := s.checkpointLocked(); err != nil {
			s.checkpointErrs++
		}
	}
	return nil
}

// NextSeq returns the lowest sequence number never used by an applied op.
func (s *Store) NextSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq
}

// Records returns the current records of one kind, sorted by key.
func (s *Store) Records(kind string) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	byKey := s.records[kind]
	out := make([]Record, 0, len(byKey))
	for _, r := range byKey {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// PutTable persists t as a content-addressed snapshot and returns its
// fingerprint. Identical content is stored once (datasets and the release
// origins pinned to them share bytes). The file is fully durable — written
// to a temp name, fsynced, renamed, directory fsynced — before PutTable
// returns, so a subsequent Apply referencing it survives any crash.
func (s *Store) PutTable(t *dataset.Table) (string, error) {
	fp := t.Fingerprint()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", ErrClosed
	}
	if _, ok := s.tables[fp]; ok {
		s.putAt[fp] = s.now()
		s.mu.Unlock()
		return fp, nil
	}
	s.mu.Unlock()

	// Encode outside the lock; snapshot writes can be large. Concurrent puts
	// of the same content each write their own temp file, and the renames
	// replace one identical snapshot with another.
	final := s.tablePath(fp)
	tmp := fmt.Sprintf("%s.%d%s", final, s.putSeq.Add(1), tmpSuffix)
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	werr := t.WriteSnapshot(f)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = s.fs.Rename(tmp, final)
	}
	if werr == nil {
		werr = s.fs.SyncDir(filepath.Join(s.dir, tablesDir))
	}
	if werr != nil {
		_ = s.fs.Remove(tmp)
		return "", fmt.Errorf("store: write table snapshot %s: %w", fp, werr)
	}
	size := int64(0)
	if info, err := s.fs.Stat(final); err == nil {
		size = info.Size()
	}
	s.mu.Lock()
	if !s.closed {
		s.tables[fp] = size
		s.putAt[fp] = s.now()
	}
	s.mu.Unlock()
	return fp, nil
}

// Table opens (or returns the already-mapped) table snapshot fp. The table
// aliases an mmap held by the store; it stays valid until Close. Loads are
// verified: a snapshot whose content does not match fp is refused.
func (s *Store) Table(fp string) (*dataset.Table, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if mt, ok := s.mapped[fp]; ok {
		s.mu.Unlock()
		return mt.Table(), nil
	}
	if _, ok := s.tables[fp]; !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownTable, fp)
	}
	s.mu.Unlock()

	mt, err := dataset.OpenSnapshot(s.tablePath(fp))
	if err != nil {
		return nil, err
	}
	if got := mt.Table().Fingerprint(); got != fp {
		mt.Close()
		return nil, fmt.Errorf("%w: %s: content fingerprint %s does not match its address",
			dataset.ErrSnapshotCorrupt, s.tablePath(fp), got)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		mt.Close()
		return nil, ErrClosed
	}
	if prev, ok := s.mapped[fp]; ok { // lost a race with another loader
		mt.Close()
		return prev.Table(), nil
	}
	s.mapped[fp] = mt
	return mt.Table(), nil
}

func (s *Store) tablePath(fp string) string {
	return filepath.Join(s.dir, tablesDir, fp+".tbl")
}

// Checkpoint writes the current state as a new manifest generation,
// truncates the WAL, and garbage-collects table snapshots no record
// references. It is also the "snapshot" operation exposed over the API: a
// copy of the directory taken after Checkpoint is a consistent backup.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.checkpointLocked()
}

// sortedKeys returns m's keys in increasing order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (s *Store) checkpointLocked() error {
	man := manifestJSON{
		Version:     1,
		Gen:         s.gen + 1,
		NextSeq:     s.nextSeq,
		CreatedUnix: s.now().Unix(),
	}
	// Sorted kinds, then sorted keys: the record order depends only on the
	// state.
	for _, kind := range sortedKeys(s.records) {
		byKey := s.records[kind]
		for _, k := range sortedKeys(byKey) {
			man.Records = append(man.Records, byKey[k])
		}
	}
	// Compact marshaling keeps Record.Meta byte-stable across checkpoint
	// round trips (MarshalIndent would re-indent the raw JSON in place).
	data, err := json.Marshal(man)
	if err != nil {
		return err
	}
	path := filepath.Join(s.dir, manifestName)
	tmp := path + tmpSuffix
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	werr := func() error {
		if _, err := f.Write(data); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = s.fs.Rename(tmp, path)
	}
	if werr == nil {
		werr = s.fs.SyncDir(s.dir)
	}
	if werr != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("store: write manifest: %w", werr)
	}

	// The manifest now carries everything the old WAL did: retire it.
	oldWAL := s.walPath
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
	s.gen = man.Gen
	s.walPath = filepath.Join(s.dir, fmt.Sprintf("%s%08d", walPrefix, s.gen))
	s.walSize = 0
	s.walRecords = 0
	s.checkpointT = s.now()
	_ = s.fs.Remove(oldWAL)

	// GC table snapshots nothing references anymore, except those whose
	// referencing Apply may still be on its way (putAt). Only the file and
	// the tables entry go: a table already opened stays in mapped, and
	// counts in MappedTables, until Close (the file stays readable through
	// the mapping on POSIX).
	referenced := map[string]bool{}
	for _, byKey := range s.records {
		for _, r := range byKey {
			for _, fp := range r.Tables {
				referenced[fp] = true
			}
		}
	}
	for fp := range s.tables {
		if referenced[fp] || s.checkpointT.Sub(s.putAt[fp]) < putGrace {
			continue
		}
		_ = s.fs.Remove(s.tablePath(fp))
		delete(s.tables, fp)
	}
	for fp, at := range s.putAt {
		if s.checkpointT.Sub(at) >= putGrace {
			delete(s.putAt, fp)
		}
	}
	return nil
}

// Stats is a point-in-time snapshot of storage health, exported as
// ppdp_store_* metrics and the /healthz storage block.
type Stats struct {
	Generation       uint64
	WALBytes         int64
	WALRecords       int64
	WALFsyncs        int64
	CheckpointUnix   int64
	CheckpointErrors int64
	RecoverySeconds  float64
	RecoveredRecords int
	RecoveredTorn    bool
	MappedTables     int
	MappedBytes      int64
	TableFiles       int
	TableBytes       int64
	Datasets         int
	Releases         int
	Policies         int
	Specs            int
}

// Stats returns current storage statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Generation:       s.gen,
		WALBytes:         s.walSize,
		WALRecords:       s.walRecords,
		WALFsyncs:        s.walFsyncs,
		CheckpointUnix:   s.checkpointT.Unix(),
		CheckpointErrors: s.checkpointErrs,
		RecoverySeconds:  s.recovery.Seconds(),
		RecoveredRecords: s.recoveredRecords,
		RecoveredTorn:    s.recoveredTorn,
		MappedTables:     len(s.mapped),
		TableFiles:       len(s.tables),
		Datasets:         len(s.records[KindDataset]),
		Releases:         len(s.records[KindRelease]),
		Policies:         len(s.records[KindPolicy]),
		Specs:            len(s.records[KindSpec]),
	}
	for _, mt := range s.mapped {
		st.MappedBytes += mt.Size()
	}
	for _, size := range s.tables {
		st.TableBytes += size
	}
	return st
}

// Close releases the WAL handle and every table mapping. Tables obtained
// from the store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if s.wal != nil {
		if err := s.wal.Close(); err != nil {
			first = err
		}
		s.wal = nil
	}
	for fp, mt := range s.mapped {
		if err := mt.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.mapped, fp)
	}
	return first
}
