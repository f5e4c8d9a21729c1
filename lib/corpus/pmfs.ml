(* PMFS corpus (epoch persistency): library slices of journal.c,
   symlink.c/namei.c (Figure 4), xip.c, file.c and super.c.

   journal.c additionally demonstrates the static/dynamic split of
   §5.1: the deferred-durability bug at line 632 sits on a path the
   driver does not execute (found statically), while the redundant
   recovery flush at line 650 goes through pointer arithmetic and was
   historically the dynamic checker's catch — the offset lattice now
   resolves the alias, so the static tier reports it too. *)

open Types

let v1 = Analysis.Warning.Multiple_writes_at_once
let v4 = Analysis.Warning.Missing_barrier_nested_tx
let sm = Analysis.Warning.Semantic_mismatch
let mf = Analysis.Warning.Multiple_flushes
let fu = Analysis.Warning.Flush_unmodified

let journal =
  {
    name = "pmfs_journal";
    framework = Pmfs;
    description =
      "Journal commit: the epoch-1 tail update only becomes durable with \
       the epoch-2 commit flush (deferred durability), plus a redundant \
       recovery flush found dynamically";
    entry = "journal_driver_all";
    entry_args = [ 0 ];
    roots = [ "journal_driver_commit"; "journal_driver_defer"; "journal_driver_recover" ];
    source =
      {|
struct journal_t { tail: int, commit: int }

# Studied bug: the tail written in the first epoch is never flushed in
# its own epoch; the commit flush of the second epoch makes both epochs
# durable at once, violating epoch ordering. The buggy path is guarded
# by [flag] (the driver passes 0), so only the static checker sees it.
func journal_commit(j: ptr journal_t, flag: int) {
entry:
  c = flag == 1
  br c, buggy, done
buggy:
  epoch_begin                    @ journal.c:626
  store j->tail, 1               @ journal.c:628
  epoch_end                      @ journal.c:629
  epoch_begin                    @ journal.c:630
  store j->commit, 1             @ journal.c:631
  flush object j                 @ journal.c:632
  fence                          @ journal.c:633
  epoch_end                      @ journal.c:634
  br done
done:
  ret
}

# Section 5.4 site, resolved: q = j + 0 aliases j under the offset
# lattice, so the tail flush at 657 is seen and the commit flush at 660
# no longer looks like deferred durability. The whole-object commit
# flush instead draws two benign performance warnings (flushing the
# unmodified tail, and split updates across consecutive persist units).
func journal_checkpoint(j: ptr journal_t) {
entry:
  epoch_begin                    @ journal.c:654
  store j->tail, 2               @ journal.c:656
  q = j + 0
  flush exact q->tail            @ journal.c:657
  fence                          @ journal.c:658
  epoch_end                      @ journal.c:655
  epoch_begin                    @ journal.c:659
  store j->commit, 2             @ journal.c:661
  flush object j                 @ journal.c:660
  fence                          @ journal.c:662
  epoch_end                      @ journal.c:663
  ret
}

# New bug, found dynamically (and now also statically via the offset
# lattice): recovery flushes the tail again right after the
# pointer-arithmetic flush already wrote it back.
func journal_recover(j: ptr journal_t) {
entry:
  epoch_begin                    @ journal.c:644
  store j->tail, 5               @ journal.c:646
  q = j + 0
  flush exact q->tail            @ journal.c:648
  fence                          @ journal.c:649
  flush exact j->tail            @ journal.c:650
  fence                          @ journal.c:651
  epoch_end                      @ journal.c:652
  ret
}

func journal_driver_commit() {
entry:
  j = alloc pmem journal_t
  call journal_commit(j, 1)
  ret
}

func journal_driver_defer() {
entry:
  j = alloc pmem journal_t
  call journal_checkpoint(j)
  ret
}

func journal_driver_recover() {
entry:
  j = alloc pmem journal_t
  call journal_recover(j)
  ret
}

# Dynamic-analysis entry: [flag] = 0 keeps the statically-found buggy
# commit path unexecuted, like a test workload that never hits it.
func journal_driver_all(flag: int) {
entry:
  j = alloc pmem journal_t
  call journal_commit(j, flag)
  j2 = alloc pmem journal_t
  call journal_checkpoint(j2)
  j3 = alloc pmem journal_t
  call journal_recover(j3)
  ret
}
|};
    fixed_source =
      Some
        {|
struct journal_t { tail: int, commit: int }

func journal_commit(j: ptr journal_t) {
entry:
  epoch_begin
  store j->tail, 1
  flush exact j->tail
  fence
  epoch_end
  epoch_begin
  store j->commit, 1
  flush exact j->commit
  fence
  epoch_end
  ret
}

func journal_recover(j: ptr journal_t) {
entry:
  epoch_begin
  store j->tail, 5
  flush exact j->tail
  fence
  epoch_end
  ret
}

func journal_driver_all(flag: int) {
entry:
  j = alloc pmem journal_t
  call journal_commit(j)
  j3 = alloc pmem journal_t
  call journal_recover(j3)
  ret
}
|};
    expectations =
      [
        exp ~rule:v1 ~file:"journal.c" ~line:632 ~kind:Deepmc.Report.Lib
          "Flush redundant data when committing: epoch-1 tail made durable \
           together with the epoch-2 commit";
        exp ~rule:fu ~file:"journal.c" ~line:660 ~validated:false
          ~kind:Deepmc.Report.Lib
          "Benign: the whole-object commit flush writes back the tail, \
           which the offset lattice proves was already durable";
        exp ~rule:sm ~file:"journal.c" ~line:661 ~validated:false
          ~kind:Deepmc.Report.Lib
          "Benign: tail and commit are deliberately persisted in separate \
           units (journaling makes the split crash-safe)";
        exp ~rule:mf ~file:"journal.c" ~line:650 ~is_new:true ~years:3.2
          ~kind:Deepmc.Report.Lib ~discovery:Dynamic_analysis
          "Redundant write-back of the journal tail during recovery";
      ];
  }

let symlink =
  {
    name = "pmfs_symlink";
    framework = Pmfs;
    description =
      "Figure 4: pmfs_block_symlink's flushes form an inner transaction \
       that returns to pmfs_symlink without a persist barrier";
    entry = "symlink_driver";
    entry_args = [];
    roots = [ "symlink_driver" ];
    source =
      {|
struct sym_block { data: int, len: int }
struct dentry_t { entries: int, count: int }

# file symlink.c
func pmfs_block_symlink(blockp: ptr sym_block) {
entry:
  tx_begin                       @ symlink.c:30
  store blockp->data, 7          @ symlink.c:35
  flush exact blockp->data       @ symlink.c:37
  tx_end                         @ symlink.c:38
  ret
}

# file namei.c
func pmfs_symlink(dir: ptr dentry_t, blockp: ptr sym_block) {
entry:
  tx_begin                       @ namei.c:510
  call pmfs_block_symlink(blockp)
  store dir->entries, 1          @ namei.c:514
  flush exact dir->entries       @ namei.c:515
  fence                          @ namei.c:516
  tx_end                         @ namei.c:517
  ret
}

func symlink_driver() {
entry:
  dir = alloc pmem dentry_t
  blk = alloc pmem sym_block
  call pmfs_symlink(dir, blk)
  ret
}
|};
    fixed_source =
      Some
        {|
struct sym_block { data: int, len: int }
struct dentry_t { entries: int, count: int }

func pmfs_block_symlink(blockp: ptr sym_block) {
entry:
  tx_begin
  store blockp->data, 7
  flush exact blockp->data
  fence
  tx_end
  ret
}

func pmfs_symlink(dir: ptr dentry_t, blockp: ptr sym_block) {
entry:
  tx_begin
  call pmfs_block_symlink(blockp)
  store dir->entries, 1
  flush exact dir->entries
  fence
  tx_end
  ret
}

func symlink_driver() {
entry:
  dir = alloc pmem dentry_t
  blk = alloc pmem sym_block
  call pmfs_symlink(dir, blk)
  ret
}
|};
    expectations =
      [
        exp ~rule:v4 ~file:"symlink.c" ~line:38 ~kind:Deepmc.Report.Lib
          "Missing persist barrier in the inner transaction (Fig. 4)";
      ];
  }

let xip =
  {
    name = "pmfs_xip";
    framework = Pmfs;
    description =
      "Execute-in-place I/O: the same buffer is flushed twice per \
       request with no intervening modification";
    entry = "xip_driver_all";
    entry_args = [];
    roots = [ "xip_driver_read"; "xip_driver_write" ];
    source =
      {|
struct xip_buf { data: int, len: int }

func pmfs_xip_file_read(buf: ptr xip_buf) {
entry:
  store buf->data, 1             @ xip.c:204
  flush exact buf->data          @ xip.c:205
  fence                          @ xip.c:206
  flush exact buf->data          @ xip.c:207
  fence                          @ xip.c:208
  ret
}

func pmfs_xip_file_write(buf: ptr xip_buf) {
entry:
  store buf->data, 2             @ xip.c:259
  flush exact buf->data          @ xip.c:260
  fence                          @ xip.c:261
  flush exact buf->data          @ xip.c:262
  fence                          @ xip.c:263
  ret
}

func xip_driver_read() {
entry:
  b = alloc pmem xip_buf
  call pmfs_xip_file_read(b)
  ret
}

func xip_driver_write() {
entry:
  b = alloc pmem xip_buf
  call pmfs_xip_file_write(b)
  ret
}

func xip_driver_all() {
entry:
  call xip_driver_read()
  call xip_driver_write()
  ret
}
|};
    fixed_source =
      Some
        {|
struct xip_buf { data: int, len: int }

func pmfs_xip_file_read(buf: ptr xip_buf) {
entry:
  store buf->data, 1
  flush exact buf->data
  fence
  ret
}

func pmfs_xip_file_write(buf: ptr xip_buf) {
entry:
  store buf->data, 2
  flush exact buf->data
  fence
  ret
}

func xip_driver_all() {
entry:
  b = alloc pmem xip_buf
  call pmfs_xip_file_read(b)
  b2 = alloc pmem xip_buf
  call pmfs_xip_file_write(b2)
  ret
}
|};
    expectations =
      [
        exp ~rule:mf ~file:"xip.c" ~line:207 ~kind:Deepmc.Report.Lib
          "Flush the same buffer multiple times";
        exp ~rule:mf ~file:"xip.c" ~line:262 ~kind:Deepmc.Report.Lib
          "Flush the same buffer multiple times";
      ];
  }

let files =
  {
    name = "pmfs_file";
    framework = Pmfs;
    description = "Timestamp update path writes back a field nothing modified";
    entry = "file_driver";
    entry_args = [];
    roots = [ "file_driver" ];
    source =
      {|
struct pmfs_inode { mtime: int, size: int }

func pmfs_update_time(inode: ptr pmfs_inode) {
entry:
  flush exact inode->mtime       @ file.c:232
  fence                          @ file.c:233
  ret
}

func file_driver() {
entry:
  i = alloc pmem pmfs_inode
  call pmfs_update_time(i)
  ret
}
|};
    fixed_source =
      Some
        {|
struct pmfs_inode { mtime: int, size: int }

func pmfs_update_time(inode: ptr pmfs_inode) {
entry:
  store inode->mtime, 42
  flush exact inode->mtime
  fence
  ret
}

func file_driver() {
entry:
  i = alloc pmem pmfs_inode
  call pmfs_update_time(i)
  ret
}
|};
    expectations =
      [
        exp ~rule:fu ~file:"file.c" ~line:232 ~kind:Deepmc.Report.Lib
          "Flush unmodified object";
      ];
  }

let super =
  {
    name = "pmfs_super";
    framework = Pmfs;
    description =
      "Superblock save/recover: unmodified fields written back (new bugs \
       of Table 8), one found only at runtime, plus a benign repair-path \
       flush";
    entry = "super_driver_all";
    entry_args = [];
    roots = [ "super_driver_save"; "super_driver_recover"; "super_driver_repair" ];
    source =
      {|
struct pmfs_super { magic: int, size: int, root: int, pad: int }

# New bugs (Table 8): the save path writes back the magic and size
# fields even when the superblock was not modified.
func pmfs_save_super(sb: ptr pmfs_super) {
entry:
  flush exact sb->magic          @ super.c:542
  flush exact sb->size           @ super.c:543
  fence                          @ super.c:544
  ret
}

# New bug, found dynamically (and now also statically): the recovery
# path flushes the root field through a redundancy helper using pointer
# arithmetic; the offset lattice resolves q = sb + 0, so both tiers see
# the unmodified write-back.
func pmfs_recover_super(sb: ptr pmfs_super) {
entry:
  epoch_begin                    @ super.c:575
  q = sb + 0
  flush exact q->root            @ super.c:579
  fence                          @ super.c:580
  epoch_end                      @ super.c:581
  ret
}

# Resolved false positive (Section 5.4): the repair path modifies the
# magic field through the same kind of pointer arithmetic, and the
# offset lattice now proves q = sb + 0 aliases sb, so the flush at 584
# is recognized as covering the modification — no warning any more.
func pmfs_repair_super(sb: ptr pmfs_super) {
entry:
  q = sb + 0
  store q->magic, 99             @ super.c:582
  flush exact sb->magic          @ super.c:584
  fence                          @ super.c:585
  ret
}

func super_driver_save() {
entry:
  sb = alloc pmem pmfs_super
  call pmfs_save_super(sb)
  ret
}

func super_driver_recover() {
entry:
  sb = alloc pmem pmfs_super
  call pmfs_recover_super(sb)
  ret
}

func super_driver_repair() {
entry:
  sb = alloc pmem pmfs_super
  call pmfs_repair_super(sb)
  ret
}

func super_driver_all() {
entry:
  call super_driver_save()
  call super_driver_recover()
  call super_driver_repair()
  ret
}
|};
    fixed_source =
      Some
        {|
struct pmfs_super { magic: int, size: int, root: int, pad: int }

func pmfs_save_super(sb: ptr pmfs_super) {
entry:
  store sb->magic, 7
  store sb->size, 64
  flush exact sb->magic
  flush exact sb->size
  fence
  ret
}

func super_driver_all() {
entry:
  sb = alloc pmem pmfs_super
  call pmfs_save_super(sb)
  ret
}
|};
    expectations =
      [
        exp ~rule:fu ~file:"super.c" ~line:542 ~is_new:true ~years:3.2
          ~kind:Deepmc.Report.Lib "Flushing unmodified fields of an object";
        exp ~rule:fu ~file:"super.c" ~line:543 ~is_new:true ~years:3.2
          ~kind:Deepmc.Report.Lib "Flushing unmodified fields of an object";
        exp ~rule:fu ~file:"super.c" ~line:579 ~is_new:true ~years:3.2
          ~kind:Deepmc.Report.Lib ~discovery:Dynamic_analysis
          "Flushing unmodified fields of an object (the pointer-arithmetic \
           flush, historically a runtime-only catch)";
        (* super.c:584 used to carry a benign fu warning here: the offset
           lattice now proves the repair path's pointer-arithmetic store
           modifies the flushed field. *)
      ];
  }

let programs = [ journal; symlink; xip; files; super ]
