package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeNamespaceDir lays out one namespace directory under a fresh config
// root and returns the root.
func writeNamespaceDir(t *testing.T, name, config string) string {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, name)
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		viewsFile:  "v(A,B) :- r(A,C), s(C,B).\n",
		baseFile:   "r(a,m). s(m,x).\n",
		configFile: config,
	}
	for file, content := range files {
		if err := os.WriteFile(filepath.Join(dir, file), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestLoadDirRefusesShardsField: Config has no shards field, so a
// config.json asking for hash-partitioned serving must fail at load, naming
// the field, rather than quietly serve flat.
func TestLoadDirRefusesShardsField(t *testing.T) {
	root := writeNamespaceDir(t, "legacy", `{"live_updates": true, "shards": 4}`)
	reg, err := LoadDir(root)
	if err == nil {
		reg.Close()
		t.Fatal("config with \"shards\" loaded")
	}
	for _, want := range []string{"legacy", configFile, `"shards"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %s", err, want)
		}
	}

	// The same namespace without the field loads and serves.
	root = writeNamespaceDir(t, "legacy", `{"live_updates": true}`)
	reg, err = LoadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if _, ok := reg.Get("legacy"); !ok {
		t.Fatalf("namespaces = %v, want legacy", reg.Names())
	}
}
