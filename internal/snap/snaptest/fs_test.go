package snaptest

import (
	"errors"
	"io/fs"
	"maps"
	"slices"
	"strings"
	"syscall"
	"testing"
)

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// put writes data to a new temp file in dir and renames it to dir/name,
// syncing the file first if sync is set; it returns the temp's name.
func put(t *testing.T, f *FS, dir, name, data string, sync bool) string {
	t.Helper()
	h, err := f.CreateTemp(dir, name+".tmp*")
	must(t, err)
	_, err = h.Write([]byte(data))
	must(t, err)
	if sync {
		must(t, h.Sync())
	}
	must(t, h.Close())
	must(t, f.Rename(h.Name(), dir+"/"+name))
	return h.Name()
}

// files lists every file under dir of f with its contents.
func files(t *testing.T, f *FS, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	entries, err := f.ReadDir(dir)
	must(t, err)
	for _, e := range entries {
		name := dir + "/" + e.Name()
		if e.IsDir() {
			for k, v := range files(t, f, name) {
				out[k] = v
			}
			continue
		}
		data, err := f.ReadFile(name)
		must(t, err)
		out[name] = string(data)
	}
	return out
}

// TestCrashModels: what each death keeps of one history. A process death
// keeps everything; a machine death keeps synced data under entries whose
// directory was synced since they were made — not a positional write made
// since the sync — and, of the file the last write went to, the live
// bytes through half of what it grew since its sync.
func TestCrashModels(t *testing.T) {
	var log []Op
	live := &FS{Hook: func(op Op) error { log = append(log, op); return nil }}
	must(t, live.MkdirAll("s/jobs"))
	must(t, live.MkdirAll("s/other"))
	must(t, live.MkdirAll("s/jobs")) // exists: no operation
	must(t, live.SyncDir("s"))
	put(t, live, "s/jobs", "synced", "kept", true)
	put(t, live, "s/jobs", "unsynced", "lost", false)
	put(t, live, "s/other", "unlisted", "entry lost", true)
	hdr, err := live.CreateTemp("s/jobs", "hdr.tmp*")
	must(t, err)
	_, err = hdr.Write([]byte("....body"))
	must(t, err)
	must(t, hdr.Sync())
	_, err = hdr.WriteAt([]byte("HEAD"), 0)
	must(t, err)
	must(t, live.Rename(hdr.Name(), "s/jobs/hdr"))
	h, err := live.CreateTemp("s/jobs", "torn.tmp*")
	must(t, err)
	must(t, live.SyncDir("s/jobs"))
	_, err = h.Write([]byte("0123456789"))
	must(t, err)
	_, err = h.WriteAt([]byte("AB"), 0)
	must(t, err)

	kinds := make([]string, len(log))
	for i, op := range log {
		kinds[i] = op.Kind
	}
	if want := []string{OpMkdir, OpMkdir, OpMkdir, OpSyncDir,
		OpCreate, OpWrite, OpSync, OpRename,
		OpCreate, OpWrite, OpRename,
		OpCreate, OpWrite, OpSync, OpRename,
		OpCreate, OpWrite, OpSync, OpWriteAt, OpRename,
		OpCreate, OpSyncDir, OpWrite, OpWriteAt}; !slices.Equal(kinds, want) {
		t.Fatalf("logged %v, want %v", kinds, want)
	}
	if got := log[4].Path; got != "s/jobs/synced.tmp1" {
		t.Fatalf("first temp is %s, want s/jobs/synced.tmp1", got)
	}

	for _, tc := range []struct {
		death Death
		want  map[string]string
	}{
		{ProcessDeath, map[string]string{
			"s/jobs/synced": "kept", "s/jobs/unsynced": "lost",
			"s/other/unlisted": "entry lost", "s/jobs/hdr": "HEADbody",
			"s/jobs/torn.tmp5": "AB23456789"}},
		{MachineDeath, map[string]string{
			"s/jobs/synced": "kept", "s/jobs/unsynced": "",
			"s/jobs/hdr": "....body", "s/jobs/torn.tmp5": "AB234"}},
	} {
		img := &FS{Past: log, Death: tc.death}
		if got := files(t, img, "s"); !maps.Equal(got, tc.want) {
			t.Errorf("death %d left %q, want %q", tc.death, got, tc.want)
		}
		// A temp name the history left is not handed out again.
		for range 4 {
			if tmp := put(t, img, "s/jobs", "torn", "x", false); tmp == "s/jobs/torn.tmp5" {
				t.Errorf("death %d: CreateTemp reused %s", tc.death, tmp)
			}
		}
	}

	// Before s/jobs was first synced, nothing renamed into it survives.
	img := &FS{Past: log[:8], Death: MachineDeath}
	if got := files(t, img, "s"); len(got) != 0 {
		t.Errorf("a file renamed into an unsynced directory survived: %q", got)
	}
}

// TestFSErrors: the failures snap.WriteFile, RemoveTemps and the daemon
// rely on come back as the os package would return them, and an
// operation the hook fails is not applied.
func TestFSErrors(t *testing.T) {
	full := errors.New("disk full")
	f := &FS{Hook: func(op Op) error {
		if op.Kind == OpWrite && strings.HasPrefix(op.Path, "d/full") {
			return full
		}
		return nil
	}}
	must(t, f.MkdirAll("/d/sub"))
	put(t, f, "d", "file", "x", false)
	h0, err := f.CreateTemp("d", "pos*")
	must(t, err)
	_, err = h0.WriteAt([]byte("ab"), 3)
	must(t, err)
	if data, _ := f.ReadFile(h0.Name()); string(data) != "\x00\x00\x00ab" {
		t.Fatalf("a write past the end left %q, want the gap zeroed", data)
	}
	must(t, f.Remove(h0.Name()))

	for _, tc := range []struct {
		name string
		err  error
		want error
	}{
		{"read missing", second(f.ReadFile("d/missing")), fs.ErrNotExist},
		{"read a directory", second(f.ReadFile("d/sub")), fs.ErrNotExist},
		{"list missing", second(f.ReadDir("d/missing")), fs.ErrNotExist},
		{"create in missing", second(f.CreateTemp("d/missing", "x*")), fs.ErrNotExist},
		{"rename missing", f.Rename("d/missing", "d/x"), fs.ErrNotExist},
		{"rename into missing", f.Rename("d/file", "d/missing/x"), fs.ErrNotExist},
		{"rename onto a directory", f.Rename("d/file", "d/sub"), fs.ErrExist},
		{"remove missing", f.Remove("d/missing"), fs.ErrNotExist},
		{"remove a full directory", f.Remove("d"), syscall.ENOTEMPTY},
		{"mkdir through a file", f.MkdirAll("d/file/x"), syscall.ENOTDIR},
		{"sync a missing directory", f.SyncDir("d/missing"), fs.ErrNotExist},
		{"mkdir over a file", f.apply(Op{Kind: OpMkdir, Path: "d/file"}), fs.ErrExist},
		{"write a missing file", f.apply(Op{Kind: OpWrite, Path: "d/missing"}), fs.ErrNotExist},
		{"write a missing file at 0", f.apply(Op{Kind: OpWriteAt, Path: "d/missing"}), fs.ErrNotExist},
		{"write before the start", second(h0.WriteAt([]byte("x"), -1)), fs.ErrInvalid},
	} {
		if !errors.Is(tc.err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, tc.err, tc.want)
		}
	}
	if err := f.apply(Op{Kind: "truncate", Path: "d/file"}); err == nil {
		t.Error("an unknown operation applied")
	}

	h, err := f.CreateTemp("d", "full*")
	must(t, err)
	if n, err := h.Write([]byte("blob")); n != 0 || !errors.Is(err, full) {
		t.Fatalf("failed write: %d, %v", n, err)
	}
	if data, _ := f.ReadFile(h.Name()); len(data) != 0 {
		t.Fatalf("a failed write was applied: %q", data)
	}
	must(t, f.Remove(h.Name()))
	must(t, f.Remove("d/sub"))

	entries, err := f.ReadDir("d")
	must(t, err)
	if len(entries) != 1 || entries[0].Name() != "file" || entries[0].IsDir() {
		t.Fatalf("d lists %v, want the one file", entries)
	}
	for _, tc := range []struct {
		op   Op
		want string
	}{
		{Op{Kind: OpRename, Path: "a", To: "b"}, "rename a → b"},
		{Op{Kind: OpWrite, Path: "a", Data: []byte("xyz")}, "write a (3 bytes)"},
		{Op{Kind: OpWriteAt, Path: "a", Data: []byte("xyz"), Off: 8}, "write a at 8 (3 bytes)"},
		{Op{Kind: OpRemove, Path: "a"}, "remove a"},
	} {
		if got := tc.op.String(); got != tc.want {
			t.Errorf("%q, want %q", got, tc.want)
		}
	}
}

func second[T any](_ T, err error) error { return err }
