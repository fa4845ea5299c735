// Package buildinfo derives version identification for the cmd/*
// binaries and the service healthz/metrics surfaces from the build's own
// metadata (runtime/debug.ReadBuildInfo): the main module version, the VCS
// revision and commit time stamped by the go tool, and the Go toolchain
// version. No ldflags plumbing is required — a plain `go build` or
// `go install` carries everything.
package buildinfo

import (
	"runtime"
	"runtime/debug"
)

// Info is the resolved build identification.
type Info struct {
	// Version is the main module version ("(devel)" for a source build).
	Version string
	// Revision is the VCS commit hash, "" when not stamped (e.g. a build
	// outside a checkout or from the module cache without VCS info).
	Revision string
	// Time is the VCS commit time in RFC 3339 form, "" when not stamped.
	Time string
	// Dirty reports uncommitted local modifications at build time.
	Dirty bool
	// GoVersion is the toolchain that built the binary.
	GoVersion string
}

// Read resolves the build info once per call; it never fails (fields are
// empty or "(devel)" when the runtime has nothing to report).
func Read() Info {
	info := Info{Version: "(devel)", GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	if bi.Main.Version != "" {
		info.Version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.Revision = s.Value
		case "vcs.time":
			info.Time = s.Value
		case "vcs.modified":
			info.Dirty = s.Value == "true"
		}
	}
	return info
}

// String renders the one-line -version output: name, module version,
// revision (short), commit time and toolchain.
func String(name string) string {
	i := Read()
	out := name + " " + i.Version
	if i.Revision != "" {
		rev := i.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		out += " (" + rev
		if i.Dirty {
			out += "-dirty"
		}
		if i.Time != "" {
			out += ", " + i.Time
		}
		out += ")"
	}
	return out + " " + i.GoVersion
}
