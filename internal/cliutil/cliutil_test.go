package cliutil

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rescache"
)

func TestParseWorkerList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a:1", []string{"a:1"}},
		{"a:1,b:2", []string{"a:1", "b:2"}},
		{" a:1 , b:2 ,", []string{"a:1", "b:2"}},
		{"http://a:1/,b:2", []string{"http://a:1/", "b:2"}},
	}
	for _, tc := range cases {
		got, err := ParseWorkerList(tc.in)
		if err != nil {
			t.Errorf("ParseWorkerList(%q) error: %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseWorkerList(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseWorkerListRejectsEmptyList(t *testing.T) {
	if _, err := ParseWorkerList(" , ,"); err == nil {
		t.Fatal("list of empty addresses accepted")
	}
}

// A doubled worker address would get two dispatch loops and silently pull
// double the shards — rejected as a usage error, with trailing slashes
// normalised away first so "host:1" and "host:1/" count as the same
// worker (baseURL strips them before dialling too).
func TestParseWorkerListRejectsDuplicates(t *testing.T) {
	cases := []string{
		"a:1,a:1",
		"a:1,b:2,a:1",
		"a:1/,a:1",
		"a:1, a:1/ ",
		"http://a:1,http://a:1///",
	}
	for _, in := range cases {
		_, err := ParseWorkerList(in)
		if err == nil {
			t.Errorf("ParseWorkerList(%q) accepted a duplicate worker", in)
			continue
		}
		if !IsUsage(err) {
			t.Errorf("ParseWorkerList(%q) error %v is not a usage error", in, err)
		}
		if !strings.Contains(err.Error(), "a:1") {
			t.Errorf("error %q does not name the duplicated worker", err)
		}
	}
	// Same host, different scheme spelling: distinct strings, not flagged
	// (the operator may genuinely front one host two ways).
	if _, err := ParseWorkerList("a:1,http://a:1"); err != nil {
		t.Errorf("distinct spellings rejected: %v", err)
	}
}

func TestResolveCacheDir(t *testing.T) {
	t.Setenv(CacheEnv, "")
	cases := []struct {
		dir     string
		noCache bool
		env     string
		want    string
	}{
		{"", false, "", ""},
		{"/tmp/c", false, "", "/tmp/c"},
		{"", false, "/env/c", "/env/c"},
		{"/tmp/c", false, "/env/c", "/tmp/c"},
		{"", true, "/env/c", ""},
		{"", true, "", ""},
	}
	for _, tc := range cases {
		t.Setenv(CacheEnv, tc.env)
		got, err := ResolveCacheDir(tc.dir, tc.noCache)
		if err != nil {
			t.Errorf("ResolveCacheDir(%q, %v) [env %q] error: %v", tc.dir, tc.noCache, tc.env, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ResolveCacheDir(%q, %v) [env %q] = %q, want %q", tc.dir, tc.noCache, tc.env, got, tc.want)
		}
	}
}

func TestResolveCacheDirRejectsContradiction(t *testing.T) {
	_, err := ResolveCacheDir("/tmp/c", true)
	if err == nil || !IsUsage(err) {
		t.Fatalf("-cache with -no-cache should be a usage error, got %v", err)
	}
}

// The cache group: off by default, honouring $GLACSWEB_CACHE, -no-cache
// winning over the environment, the contradictory explicit pair refused
// as a usage error, and no local cache for remote or recording runs.
func TestOpenCache(t *testing.T) {
	open := func(dir string, off, remote, recording bool) (*rescache.DiskCache, error) {
		return (&Cache{dir: dir, off: off}).Open(remote, recording)
	}
	t.Setenv(CacheEnv, "")
	if c, err := open("", false, false, false); c != nil || err != nil {
		t.Fatalf("Open with nothing set = %v, %v; want no cache", c, err)
	}
	dir := t.TempDir()
	c, err := open(dir, false, false, false)
	if err != nil || c == nil {
		t.Fatalf("Open(%q) = %v, %v", dir, c, err)
	}
	if c.Dir() != dir {
		t.Fatalf("cache rooted at %q, want %q", c.Dir(), dir)
	}
	t.Setenv(CacheEnv, dir)
	if c, err := open("", false, false, false); err != nil || c == nil || c.Dir() != dir {
		t.Fatalf("Open under $%s = %v, %v; want the env cache", CacheEnv, c, err)
	}
	if c, err := open("", true, false, false); c != nil || err != nil {
		t.Fatalf("-no-cache under $%s = %v, %v; want no cache", CacheEnv, c, err)
	}
	for _, remote := range []bool{false, true} {
		if c, err := open("", false, remote, !remote); c != nil || err != nil {
			t.Fatalf("remote=%v under $%s = %v, %v; want no local cache", remote, CacheEnv, c, err)
		}
		if _, err := open(dir, false, remote, !remote); !IsUsage(err) {
			t.Fatalf("-cache with remote=%v recording=%v returned %v, want a usage error", remote, !remote, err)
		}
	}
	if _, err := open(dir, true, false, false); !IsUsage(err) {
		t.Fatalf("-cache with -no-cache returned %v, want a usage error", err)
	}
}

func TestIsUsage(t *testing.T) {
	if !IsUsage(Usagef("bad flags")) {
		t.Fatal("Usagef result not recognised")
	}
	if !IsUsage(fmt.Errorf("wrap: %w", Usagef("inner"))) {
		t.Fatal("wrapped usage error not recognised")
	}
	if IsUsage(fmt.Errorf("plain failure")) {
		t.Fatal("plain error misclassified as usage")
	}
}
