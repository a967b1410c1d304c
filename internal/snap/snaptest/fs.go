package snaptest

import (
	"fmt"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing/fstest"
)

// File is snap.File, declared again as the identical unnamed interface:
// this package cannot import snap, whose own tests import it.
type File = interface {
	Name() string
	Write(p []byte) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Close() error
}

// The kinds of mutating operation an FS applies. Closing a file and
// reading change nothing a crash could keep or lose, so they are not
// operations here.
const (
	OpCreate  = "create"  // Path created empty (CreateTemp)
	OpWrite   = "write"   // Data appended to Path
	OpWriteAt = "writeat" // Data written over Path at Off (a frame's header)
	OpSync    = "sync"    // Path's data made durable
	OpRename  = "rename"  // Path renamed to To
	OpRemove  = "remove"  // Path removed
	OpMkdir   = "mkdir"   // directory Path created (one per level MkdirAll made)
	OpSyncDir = "syncdir" // directory Path's entries made durable
)

// Op is one mutating operation. A File's operations name it by the path
// it was created under, so replaying a history by path reproduces it.
type Op struct {
	Kind string
	Path string
	To   string // a rename's target
	Data []byte // a write's bytes (a copy)
	Off  int64  // a positional write's offset
}

func (op Op) String() string {
	switch op.Kind {
	case OpRename:
		return fmt.Sprintf("rename %s → %s", op.Path, op.To)
	case OpWrite:
		return fmt.Sprintf("write %s (%d bytes)", op.Path, len(op.Data))
	case OpWriteAt:
		return fmt.Sprintf("write %s at %d (%d bytes)", op.Path, op.Off, len(op.Data))
	}
	return op.Kind + " " + op.Path
}

// Death is how the machine that applied an FS's Past stopped.
type Death uint8

const (
	// ProcessDeath keeps everything applied: the kernel outlives the
	// process, and its page cache reaches the disk.
	ProcessDeath Death = iota
	// MachineDeath keeps a file's data as of its last sync and a directory
	// entry — a creation, rename or removal — as of the last sync of its
	// directory; the root directory's entries are durable when made (it
	// stands for the mount the state was prepared on). The file the last
	// write went to is also torn: if it grew since its last sync, its live
	// bytes survive through half of the growth; if not, it is as synced.
	MachineDeath
)

// FS is an in-memory snap.FS that records what it does. Hook sees every
// mutating operation; Past and Death make an FS start as the state a
// crash left behind, so a test can log a run's N operations once and then
// restart on the image after each k ≤ N:
//
//	var log []snaptest.Op
//	live := &snaptest.FS{Hook: func(op snaptest.Op) error { log = append(log, op); return nil }}
//	// ... run against live, then for each k:
//	img := &snaptest.FS{Past: log[:k], Death: snaptest.MachineDeath}
//
// The zero FS is an empty filesystem. Paths are slash- or OS-separated and
// relative to its root; a leading separator is ignored.
type FS struct {
	// Hook, if set, is called with every mutating operation before it is
	// applied, one at a time, in the order they are applied; an error it
	// returns fails the operation, which is then not applied.
	Hook func(Op) error
	// Past is the history the FS starts from, applied by the machine that
	// died as Death says. It is read once, at the first operation.
	Past  []Op
	Death Death

	mu        sync.Mutex
	root      *node
	seq       int   // last temp serial handed out
	lastWrite *node // the file the last write went to
}

// node is a file or a directory, with what a machine death would keep of
// it beside what is live.
type node struct {
	dir           bool
	data, synced  []byte           // a file's contents, live and as of its last sync
	kids, durable map[string]*node // a directory's entries, live and as of its last sync
}

func newDir() *node { return &node{dir: true, kids: map[string]*node{}, durable: map[string]*node{}} }

// init builds the starting state on first use: empty, or Past's image.
func (f *FS) init() {
	if f.root != nil {
		return
	}
	prev := &FS{root: newDir()}
	for _, op := range f.Past {
		prev.apply(op) //nolint:errcheck // a failed operation failed the same way the first time
	}
	f.root = prev.image(prev.root, f.Death)
}

// image copies n as death leaves it. What survives is durable in the copy.
func (f *FS) image(n *node, death Death) *node {
	if !n.dir {
		data := n.data
		if death == MachineDeath {
			data = n.synced
			if n == f.lastWrite && len(n.data) > len(n.synced) {
				data = n.data[:len(n.synced)+(len(n.data)-len(n.synced))/2]
			}
		}
		data = append([]byte(nil), data...)
		return &node{data: data, synced: data}
	}
	kids := n.kids
	if death == MachineDeath && n != f.root {
		kids = n.durable
	}
	out := newDir()
	for name, kid := range kids { //wormvet:allow determinism -- copies one map into another; order cannot show
		out.kids[name] = f.image(kid, death)
		out.durable[name] = out.kids[name]
	}
	return out
}

// clean turns a path into the slash-separated form the tree is walked by.
func clean(name string) string {
	return strings.TrimPrefix(path.Clean("/"+filepath.ToSlash(name)), "/")
}

// lookup walks to name; the root is "".
func (f *FS) lookup(name string) *node {
	n := f.root
	if name == "" {
		return n
	}
	for _, part := range strings.Split(name, "/") {
		if !n.dir {
			return nil
		}
		if n = n.kids[part]; n == nil {
			return nil
		}
	}
	return n
}

// parent returns the directory that holds name, and name's last element.
func (f *FS) parent(op, name string) (*node, string, error) {
	dir, base := path.Split(name)
	p := f.lookup(strings.TrimSuffix(dir, "/"))
	if p == nil || !p.dir {
		return nil, "", &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
	}
	return p, base, nil
}

// do runs op through the hook and applies it.
func (f *FS) do(op Op) error {
	if f.Hook != nil {
		if err := f.Hook(op); err != nil {
			return err
		}
	}
	return f.apply(op)
}

// apply makes one operation's change, live and durable alike.
func (f *FS) apply(op Op) error {
	switch op.Kind {
	case OpCreate, OpMkdir:
		p, base, err := f.parent(op.Kind, op.Path)
		if err != nil {
			return err
		}
		if p.kids[base] != nil {
			return &fs.PathError{Op: op.Kind, Path: op.Path, Err: fs.ErrExist}
		}
		if op.Kind == OpMkdir {
			p.kids[base] = newDir()
		} else {
			p.kids[base] = &node{}
		}
	case OpWrite, OpWriteAt, OpSync:
		n := f.lookup(op.Path)
		if n == nil || n.dir {
			return &fs.PathError{Op: op.Kind, Path: op.Path, Err: fs.ErrNotExist}
		}
		switch op.Kind {
		case OpWrite:
			n.data = append(n.data, op.Data...)
			f.lastWrite = n
		case OpWriteAt:
			// A fresh copy: the synced bytes may share n.data's array.
			data := make([]byte, max(int64(len(n.data)), op.Off+int64(len(op.Data))))
			copy(data, n.data)
			copy(data[op.Off:], op.Data)
			n.data = data
			f.lastWrite = n
		default:
			n.synced = n.data[:len(n.data):len(n.data)]
		}
	case OpRename:
		from, fbase, err := f.parent(op.Kind, op.Path)
		if err != nil {
			return err
		}
		to, tbase, err := f.parent(op.Kind, op.To)
		if err != nil {
			return err
		}
		n := from.kids[fbase]
		if n == nil {
			return &fs.PathError{Op: op.Kind, Path: op.Path, Err: fs.ErrNotExist}
		}
		if old := to.kids[tbase]; old != nil && old.dir {
			return &fs.PathError{Op: op.Kind, Path: op.To, Err: fs.ErrExist}
		}
		delete(from.kids, fbase)
		to.kids[tbase] = n
	case OpRemove:
		p, base, err := f.parent(op.Kind, op.Path)
		if err != nil {
			return err
		}
		n := p.kids[base]
		if n == nil {
			return &fs.PathError{Op: op.Kind, Path: op.Path, Err: fs.ErrNotExist}
		}
		if n.dir && len(n.kids) > 0 {
			return &fs.PathError{Op: op.Kind, Path: op.Path, Err: syscall.ENOTEMPTY}
		}
		delete(p.kids, base)
	case OpSyncDir:
		n := f.lookup(op.Path)
		if n == nil || !n.dir {
			return &fs.PathError{Op: op.Kind, Path: op.Path, Err: fs.ErrNotExist}
		}
		n.durable = make(map[string]*node, len(n.kids))
		for name, kid := range n.kids { //wormvet:allow determinism -- copies one map into another; order cannot show
			n.durable[name] = kid
		}
	default:
		return fmt.Errorf("snaptest: unknown operation %q", op.Kind)
	}
	return nil
}

// CreateTemp creates a new empty file in dir, named pattern with its last
// "*" replaced by a decimal serial, as os.CreateTemp does.
func (f *FS) CreateTemp(dir, pattern string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.init()
	prefix, suffix := pattern, ""
	if i := strings.LastIndex(pattern, "*"); i >= 0 {
		prefix, suffix = pattern[:i], pattern[i+1:]
	}
	d := clean(dir)
	for {
		f.seq++
		name := path.Join(d, prefix+strconv.Itoa(f.seq)+suffix)
		if f.lookup(name) != nil {
			continue
		}
		if err := f.do(Op{Kind: OpCreate, Path: name}); err != nil {
			return nil, err
		}
		return &file{fs: f, name: name}, nil
	}
}

// file is an open handle; its operations name the file by its path.
type file struct {
	fs   *FS
	name string
}

func (h *file) Name() string { return h.name }
func (h *file) Close() error { return nil }

func (h *file) Write(p []byte) (int, error) { return h.write(OpWrite, p, 0) }

// WriteAt writes p over the file at off, extending it with zeros if off
// is past its end.
func (h *file) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, &fs.PathError{Op: "writeat", Path: h.name, Err: fs.ErrInvalid}
	}
	return h.write(OpWriteAt, p, off)
}

func (h *file) write(kind string, p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.do(Op{Kind: kind, Path: h.name, Data: append([]byte(nil), p...), Off: off}); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (h *file) Sync() error { return h.fs.op(OpSync, h.name, "") }

func (f *FS) op(kind, name, to string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.init()
	return f.do(Op{Kind: kind, Path: name, To: to})
}

// Rename renames a file, replacing any file at to.
func (f *FS) Rename(from, to string) error { return f.op(OpRename, clean(from), clean(to)) }

// Remove removes a file or an empty directory.
func (f *FS) Remove(name string) error { return f.op(OpRemove, clean(name), "") }

// SyncDir makes dir's entries durable.
func (f *FS) SyncDir(dir string) error { return f.op(OpSyncDir, clean(dir), "") }

// MkdirAll creates dir and every missing parent, one operation each.
func (f *FS) MkdirAll(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.init()
	name := clean(dir)
	if name == "" {
		return nil
	}
	parts := strings.Split(name, "/")
	for i := range parts {
		sub := strings.Join(parts[:i+1], "/")
		switch n := f.lookup(sub); {
		case n == nil:
			if err := f.do(Op{Kind: OpMkdir, Path: sub}); err != nil {
				return err
			}
		case !n.dir:
			return &fs.PathError{Op: "mkdir", Path: sub, Err: syscall.ENOTDIR}
		}
	}
	return nil
}

// ReadFile returns a copy of a file's live contents.
func (f *FS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.init()
	n := f.lookup(clean(name))
	if n == nil || n.dir {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), n.data...), nil
}

// ReadDir lists a directory's live entries, sorted by name.
func (f *FS) ReadDir(dir string) ([]fs.DirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.init()
	n := f.lookup(clean(dir))
	if n == nil || !n.dir {
		return nil, &fs.PathError{Op: "open", Path: dir, Err: fs.ErrNotExist}
	}
	listing := fstest.MapFS{}
	for name, kid := range n.kids { //wormvet:allow determinism -- fills a MapFS, which fs.ReadDir lists sorted
		mode := fs.FileMode(0o644)
		if kid.dir {
			mode = fs.ModeDir | 0o755
		}
		listing[name] = &fstest.MapFile{Mode: mode}
	}
	return fs.ReadDir(listing, ".")
}
