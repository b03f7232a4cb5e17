package store

import "syscall"

// sysFstatat is fstatat(2), which amd64 numbers as newfstatat.
const sysFstatat = syscall.SYS_NEWFSTATAT
