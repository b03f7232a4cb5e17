package store

import "syscall"

// sysFstatat is fstatat(2).
const sysFstatat = syscall.SYS_FSTATAT
