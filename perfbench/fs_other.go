//go:build !linux

package main

// fsType names the filesystem dir lives on; only Linux is recognised.
func fsType(dir string) string { return "unknown (not Linux)" }
