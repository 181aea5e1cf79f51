package main

import (
	"strings"
	"testing"

	"repro/internal/cliutil"
)

// The zero-input campaign merge must be a usage error (exit 2), never a
// silently successful empty artifact set.
func TestCampaignMergeZeroDirsIsUsageError(t *testing.T) {
	err := mergeCampaign(t.TempDir(), nil)
	if err == nil {
		t.Fatal("campaign merge of zero shard directories succeeded")
	}
	if !cliutil.IsUsage(err) {
		t.Fatalf("campaign merge of zero shard directories returned %v, want a usage error", err)
	}
}

// TestCLISurface feeds whole command lines to run: a flag outside its
// subcommand, a conflict inside one, a malformed value and an unknown
// experiment are usage errors (exit 2); the rest run. Rows run in order,
// so the merge row reads the shards the rows before it wrote. DIR is a
// fresh directory.
func TestCLISurface(t *testing.T) {
	t.Setenv(cliutil.CacheEnv, "")
	dir := t.TempDir()
	rows := []struct {
		args  string
		usage bool
	}{
		{"", true},
		{"bogus", true},
		{"-exp x9", true},
		{"-campaign -dir DIR/old", true},
		{"exp -dir DIR/e", true},
		{"exp -seeds 3 t2", true},
		{"exp nope", true},
		{"exp t1,nope", true},
		{"campaign -exp x9 -dir DIR/c", true},
		{"campaign -dir DIR/c extra", true},
		{"campaign -shard 0/2 -remote h:1", true},
		{"campaign -shard 0/2 -resume", true},
		{"campaign -shard 2/2", true},
		{"campaign -workers 2 -remote h:1", true},
		{"campaign -remote ,", true},
		{"campaign -remote h:1,h:1/", true},
		{"campaign -remote h:1 -cache DIR/cache", true},
		{"campaign -cache DIR/cache -no-cache", true},
		{"campaign -record-dir DIR/r -remote h:1", true},
		{"campaign -record-dir DIR/r -resume", true},
		{"campaign -record-dir DIR/r -cache DIR/cache", true},
		{"campaign -seeds 0 -dir DIR/c", true},
		{"campaign -days -3 -dir DIR/c", true},
		{"campaign -workers -5 -dir DIR/c", true},
		{"merge", true},
		{"merge -seeds 2 DIR/s0", true},
		{"merge -shard 0/2 DIR/s0", true},

		{"exp -h", false},
		{"exp t2", false},
		{"exp all,t1", false},
		{"exp t2 all", false},
		{"campaign -dir DIR/s0 -seeds 1 -days 1 -shard 0/2 -no-cache", false},
		{"campaign -dir DIR/s1 -seeds 1 -days 1 -shard 1/2", false},
		{"merge -dir DIR/m DIR/s0 DIR/s1", false},
	}
	for _, r := range rows {
		args := strings.Fields(strings.ReplaceAll(r.args, "DIR", dir))
		err := run(args)
		switch {
		case r.usage && !cliutil.IsUsage(err):
			t.Errorf("glacreport %s: returned %v, want a usage error", r.args, err)
		case !r.usage && err != nil:
			t.Errorf("glacreport %s: %v", r.args, err)
		}
	}
}
