package main

import (
	"strings"
	"testing"

	"repro/internal/cliutil"
)

func TestParseShard(t *testing.T) {
	good := []struct {
		in   string
		i, m int
	}{
		{"", 0, 1},
		{"0/1", 0, 1},
		{"0/3", 0, 3},
		{"2/3", 2, 3},
	}
	for _, c := range good {
		i, m, err := parseShard(c.in)
		if err != nil || i != c.i || m != c.m {
			t.Errorf("parseShard(%q) = %d, %d, %v; want %d, %d", c.in, i, m, err, c.i, c.m)
		}
	}
	bad := []string{"3", "a/b", "1/0", "2/2", "3/2", "-1/2", "1/-3", "1/2/3", "/", "1/"}
	for _, in := range bad {
		_, _, err := parseShard(in)
		if err == nil {
			t.Errorf("parseShard(%q) accepted", in)
			continue
		}
		// Malformed shard specs are usage errors: main must print the
		// usage line and exit 2, not 1.
		if !cliutil.IsUsage(err) {
			t.Errorf("parseShard(%q) error %v is not a usage error", in, err)
		}
	}
}

// The zero-input merge must be a usage error (exit 2), not a silently
// successful empty summary.
func TestMergeZeroFilesIsUsageError(t *testing.T) {
	err := run([]string{"merge", "-out", "json"})
	if err == nil {
		t.Fatal("merge of zero files succeeded")
	}
	if !cliutil.IsUsage(err) {
		t.Fatalf("merge of zero files returned %v, want a usage error", err)
	}
}

// TestCLISurface feeds whole command lines to run: a flag outside its
// subcommand, a conflict inside one and a malformed value are usage
// errors (exit 2); the rest run. Rows run in order, so the merge row
// reads the shards the rows before it wrote. DIR is a fresh directory.
func TestCLISurface(t *testing.T) {
	t.Setenv(cliutil.CacheEnv, "")
	dir := t.TempDir()
	rows := []struct {
		args  string
		usage bool
	}{
		{"", true},
		{"bogus", true},
		{"-sweep -days 1", true},
		{"run -seeds 8 -workers 3 -days 1", true},
		{"run -days 1 -out json", true},
		{"run -days 1 -shard 0/2", true},
		{"run -days 1 -remote h:1", true},
		{"run -days 1 -cache DIR/c", true},
		{"run -days 1 -record-dir DIR/r", true},
		{"run -days 1 extra", true},
		{"run -days -1", true},
		{"run -record DIR/a.evlog -csv DIR/v.csv", true},
		{"run -scenario as-deployed-2008 -stations 5 -days 1", true},
		{"run -scenario fleet-N -stations 1 -days 1", true},
		{"sweep -days 1 -v", true},
		{"sweep -days 1 -csv DIR/v.csv", true},
		{"sweep -days 1 -record DIR/a.evlog", true},
		{"sweep -days 1 -listen :0", true},
		{"sweep -days 1 -o DIR/s.txt", true},
		{"sweep -days 1 -out xml", true},
		{"sweep -days 1 -seeds 0", true},
		{"sweep -days 1 -workers -3", true},
		{"sweep -scenario as-deployed-2008 -stations 5 -seeds 1 -days 1", true},
		{"sweep -scenario fleet-N,dual-base -stations 2 -seeds 1 -days 1", true},
		{"sweep -days 1 -shard 2/2", true},
		{"sweep -days 1 -remote h:1 -workers 2", true},
		{"sweep -days 1 -remote h:1 -cache DIR/c", true},
		{"sweep -days 1 -remote h:1 -record-dir DIR/r", true},
		{"sweep -days 1 -remote h:1,h:1/", true},
		{"sweep -days 1 -remote ,", true},
		{"sweep -days 1 -record-dir DIR/r -cache DIR/c", true},
		{"sweep -days 1 -cache DIR/c -no-cache", true},
		{"sweep -days 1 -cache DIR/c -cache-max-mb -5", true},
		{"sweep -days 1 -cache DIR/c -cache-max-mb 17592186044417", true},
		{"merge -o DIR/m.json DIR/s0.json", true},
		{"merge -seeds 2 DIR/s0.json", true},
		{"replay", true},
		{"replay -days 1 DIR/a.evlog", true},
		{"evdiff DIR/a.evlog", true},
		{"worker", true},
		{"worker -listen :0 -days 1", true},
		{"worker -listen :0 -remote h:1", true},
		{"worker -listen 127.0.0.1:0 -max-shards -1", true},
		{"worker -listen 127.0.0.1:0 -workers -2", true},
		{"list -days 1", true},
		{"list x", true},

		{"list", false},
		{"run -h", false},
		{"run -scenario dual-base -days 1 -record DIR/a.evlog", false},
		{"run -scenario dual-base -days 1 -csv DIR/v.csv", false},
		{"run -scenario dual-base -stations 3 -days 1", false},
		{"replay DIR/a.evlog", false},
		{"evdiff DIR/a.evlog DIR/a.evlog", false},
		{"sweep -scenario dual-base -seeds 2 -days 1 -shard 0/2 -out json -o DIR/s0.json", false},
		{"sweep -scenario dual-base -seeds 2 -days 1 -shard 1/2 -out json -o DIR/s1.json", false},
		{"merge -out text -o DIR/m.txt DIR/s0.json DIR/s1.json", false},
		{"sweep -scenario dual-base -seeds 1 -days 1 -no-cache", false},
		{"sweep -scenario dual-base -seeds 1 -days 1 -cache DIR/c -cache-max-mb 1", false},
	}
	for _, r := range rows {
		args := strings.Fields(strings.ReplaceAll(r.args, "DIR", dir))
		err := run(args)
		switch {
		case r.usage && !cliutil.IsUsage(err):
			t.Errorf("glacsim %s: returned %v, want a usage error", r.args, err)
		case !r.usage && err != nil:
			t.Errorf("glacsim %s: %v", r.args, err)
		}
	}
}
