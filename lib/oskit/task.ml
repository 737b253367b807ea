(** Process/thread management helpers. *)

open Defs

(* User VA layout: heap allocations grow from 16 MiB; device mmaps are
   placed by the VFS from 1 GiB upward (see Vfs.mmap). *)
let user_heap_base = 0x0100_0000
let user_heap_size = 0x3000_0000
let mmap_base = 0x4000_0000

(* [pid] and [pt_id] are allocated by the owning kernel (per-VM
   counters): the hypervisor keys its per-process state by
   [(vm id, pid)] / [(vm id, pt id)], so per-VM uniqueness suffices —
   and keeping the counters out of global state lets independent
   machines (fleet shards) allocate identical ids regardless of how
   many ran before them in the same process. *)
let create ~pid ~pt_id ~name ~vm =
  {
    pid;
    task_name = name;
    vm;
    pt = Memory.Guest_pt.create ~id:pt_id ();
    va_alloc = Memory.Allocator.create ~base:user_heap_base ~size:user_heap_size;
    fds = Hashtbl.create 8;
    next_fd = 3; (* 0-2 reserved, as tradition demands *)
    mmap_cursor = mmap_base;
    vmas = [];
    remote = None;
    sigio_handler = None;
    sigio_count = 0;
  }

(** Allocate [len] bytes of process memory (page-granular backing from
    the VM's RAM); returns the user virtual address. *)
let alloc_buf task len =
  if len <= 0 then invalid_arg "Task.alloc_buf";
  let pages = Memory.Addr.pages_spanned ~addr:0 ~len in
  let gva = Memory.Allocator.alloc_range task.va_alloc pages in
  for i = 0 to pages - 1 do
    let gpa = Hypervisor.Vm.alloc_gpa_page task.vm in
    Memory.Guest_pt.map task.pt
      ~gva:(gva + (i * Memory.Addr.page_size))
      ~gpa ~perms:Memory.Perm.rw
  done;
  gva

let free_buf task ~gva ~len =
  let pages = Memory.Addr.pages_spanned ~addr:0 ~len in
  for i = 0 to pages - 1 do
    let page_gva = gva + (i * Memory.Addr.page_size) in
    (match Memory.Guest_pt.translate_opt task.pt ~gva:page_gva ~access:Memory.Perm.Read with
    | Some gpa -> Hypervisor.Vm.free_gpa_page task.vm (Memory.Addr.align_down gpa)
    | None -> ());
    ignore (Memory.Guest_pt.unmap task.pt ~gva:page_gva)
  done;
  Memory.Allocator.free_page task.va_alloc gva

(** Raw user-memory access, no demand paging (see {!Vfs.user_read} for
    the fault-handling variant applications use on mmap'd ranges). *)
let read_mem task ~gva ~len = Hypervisor.Vm.read task.vm ~pt:task.pt ~addr:gva ~len
let write_mem task ~gva data = Hypervisor.Vm.write task.vm ~pt:task.pt ~addr:gva data

let read_u32 task ~gva = Hypervisor.Vm.read_u32 task.vm ~pt:task.pt ~addr:gva
let write_u32 task ~gva v = Hypervisor.Vm.write_u32 task.vm ~pt:task.pt ~addr:gva v
let read_u64 task ~gva = Hypervisor.Vm.read_u64 task.vm ~pt:task.pt ~addr:gva
let write_u64 task ~gva v = Hypervisor.Vm.write_u64 task.vm ~pt:task.pt ~addr:gva v

(** Register the process's SIGIO handler (the asynchronous-notification
    delivery target of §2.1). *)
let on_sigio task handler = task.sigio_handler <- Some handler

let deliver_sigio task =
  task.sigio_count <- task.sigio_count + 1;
  match task.sigio_handler with Some h -> h () | None -> ()

let with_remote task rc f =
  task.remote <- Some rc;
  match f () with
  | v ->
      task.remote <- None;
      v
  | exception exn ->
      task.remote <- None;
      raise exn
