(** User-memory access for drivers — with the wrapper stubs of §5.2.

    Drivers call [copy_from_user] / [copy_to_user] / [insert_pfn] as
    they would in Linux.  When the calling thread is {e marked} (the
    CVD backend set [task.remote] before invoking the driver on behalf
    of a guest process), the operation is redirected to the hypervisor
    memory-operation API, carrying the request the backend built for
    that file operation, and validated against the guest's grant
    table; otherwise it acts on the local process.  Device drivers are
    therefore {b unmodified} with respect to virtualization. *)

open Defs

let fault_of_rejection msg = Errno.fail Errno.EFAULT msg

(** Optional observation hook: records every user-memory operation a
    driver performs.  The analyzer's tests use it to check that the
    statically-extracted operation lists match what the driver really
    does, and tracing tools can log with it. *)
type recorded_op =
  | Rec_copy_from of { uaddr : int; len : int }
  | Rec_copy_to of { uaddr : int; len : int }
  | Rec_insert_pfn of { gva : int }

let recorder : (recorded_op -> unit) option ref = ref None

let with_recorder f body =
  let saved = !recorder in
  recorder := Some f;
  match body () with
  | v ->
      recorder := saved;
      v
  | exception exn ->
      recorder := saved;
      raise exn

let record op = match !recorder with Some f -> f op | None -> ()

(* Span a remote memory operation on the hypervisor lane.  The span
   carries the software-TLB hit/miss delta the operation caused, read
   from the hypervisor's audit counters — the executable form of the
   paper's translation-cost breakdown.  Zero-cost when tracing is off
   or the operation is untraced (rc_trace = 0). *)
let hyp_span rc ~name f =
  let tr = Hypervisor.Hyp.tracer rc.rc_hyp in
  if (not (Obs.Trace.enabled tr)) || rc.rc_trace = 0 then f ()
  else begin
    let audit = Hypervisor.Hyp.audit rc.rc_hyp in
    let hits0 = Hypervisor.Audit.tlb_hits audit
    and misses0 = Hypervisor.Audit.tlb_misses audit in
    let sp =
      Obs.Trace.span_begin tr ~trace:rc.rc_trace ~lane:Obs.Trace.Hypervisor
        ~cat:"hyp" ~name ()
    in
    let finish status =
      Obs.Trace.span_arg sp "tlb_hits"
        (float_of_int (Hypervisor.Audit.tlb_hits audit - hits0));
      Obs.Trace.span_arg sp "tlb_misses"
        (float_of_int (Hypervisor.Audit.tlb_misses audit - misses0));
      Obs.Trace.span_end ~status tr sp
    in
    match f () with
    | v ->
        finish "ok";
        v
    | exception exn ->
        finish "error";
        raise exn
  end

(** Driver reads [len] bytes from the current process at [uaddr] into
    [dst] at [dst_off] — zero-copy: the bytes land in the driver's
    buffer with no intermediate copy, local and remote alike. *)
let copy_from_user_into task ~uaddr ~dst ~dst_off ~len =
  record (Rec_copy_from { uaddr; len });
  match task.remote with
  | None -> (
      try
        Hypervisor.Vm.read_into task.vm ~pt:task.pt ~addr:uaddr ~dst ~dst_off ~len
      with Memory.Fault.Page_fault _ -> Errno.fail Errno.EFAULT "bad user pointer")
  | Some rc ->
      hyp_span rc ~name:"copy_from_user" (fun () ->
          rc.rc_charge 1.;
          try
            Hypervisor.Hyp.copy_from_process_into rc.rc_hyp rc.rc_req ~gva:uaddr
              ~dst ~dst_off ~len
          with Hypervisor.Hyp.Rejected msg -> fault_of_rejection msg)

(** Driver reads [len] bytes from the current process at [uaddr]. *)
let copy_from_user task ~uaddr ~len =
  let dst = Bytes.create len in
  copy_from_user_into task ~uaddr ~dst ~dst_off:0 ~len;
  dst

(** Driver writes [len] bytes of [src] from [src_off] into the current
    process at [uaddr] — zero-copy counterpart of
    {!copy_from_user_into}. *)
let copy_to_user_from task ~uaddr ~src ~src_off ~len =
  record (Rec_copy_to { uaddr; len });
  match task.remote with
  | None -> (
      try
        Hypervisor.Vm.write_from task.vm ~pt:task.pt ~addr:uaddr ~src ~src_off ~len
      with Memory.Fault.Page_fault _ -> Errno.fail Errno.EFAULT "bad user pointer")
  | Some rc ->
      hyp_span rc ~name:"copy_to_user" (fun () ->
          rc.rc_charge 1.;
          try
            Hypervisor.Hyp.copy_to_process_from rc.rc_hyp rc.rc_req ~gva:uaddr
              ~src ~src_off ~len
          with Hypervisor.Hyp.Rejected msg -> fault_of_rejection msg)

(** Driver writes [data] into the current process at [uaddr]. *)
let copy_to_user task ~uaddr data =
  copy_to_user_from task ~uaddr ~src:data ~src_off:0 ~len:(Bytes.length data)

let copy_to_user_u32 task ~uaddr v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  copy_to_user task ~uaddr b

(** Map one page of (driver-VM-addressed) memory into the current
    process at [gva] — the [vm_insert_pfn] analogue, used by mmap and
    fault handlers.  [page_gpa] is the page's address as the driver
    sees it (its VM's guest-physical space). *)
let insert_pfn task ~gva ~page_gpa ~perms =
  record (Rec_insert_pfn { gva });
  if not (Memory.Addr.is_page_aligned gva && Memory.Addr.is_page_aligned page_gpa)
  then Errno.fail Errno.EINVAL "insert_pfn: unaligned";
  match task.remote with
  | None ->
      (* Local process: point its page table at the existing
         guest-physical page. *)
      Memory.Guest_pt.map task.pt ~gva ~gpa:page_gpa ~perms
  | Some rc ->
      hyp_span rc ~name:"insert_pfn" (fun () ->
          rc.rc_charge 1.;
          (* Resolve the driver's view of the page to a system-physical
             frame, then ask the hypervisor to wire it into the guest. *)
          match Memory.Ept.lookup (Hypervisor.Vm.ept task.vm) ~gpa:page_gpa with
          | None ->
              Errno.fail Errno.EFAULT "insert_pfn: page not present in driver VM"
          | Some (spa, _) -> (
              try
                Hypervisor.Hyp.map_page_into_process rc.rc_hyp rc.rc_req ~gva
                  ~spa ~perms
              with Hypervisor.Hyp.Rejected msg -> fault_of_rejection msg))

(** Remove a process mapping previously created with {!insert_pfn}. *)
let remove_pfn task ~gva =
  match task.remote with
  | None -> ignore (Memory.Guest_pt.unmap task.pt ~gva)
  | Some rc ->
      hyp_span rc ~name:"remove_pfn" (fun () ->
          rc.rc_charge 1.;
          try Hypervisor.Hyp.unmap_page_from_process rc.rc_hyp rc.rc_req ~gva
          with Hypervisor.Hyp.Rejected msg -> fault_of_rejection msg)
