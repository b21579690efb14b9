package main

import (
	"fmt"
	"syscall"
)

// fsType names the filesystem dir lives on. fsync on tmpfs is free, so a
// durable workload measured there misprices the persist layer.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs (fsync is free: persist is mispriced)",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x2FC12FC1: "zfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("magic %#x", st.Type)
}
